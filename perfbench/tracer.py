"""In-memory span tracer that wraps partid's layer functions from outside.

A traced pass swaps every binding site of each traced function (every
module attribute under ``partid`` that holds it, such as
``partid.track_stop.solve`` and ``partid.lb_solvers.solve``) for a wrapper,
and puts the originals back when the pass ends, also on error. Callers
resolve those names at call time, so the wrappers see every call the
package makes through them.

Each call opens a span with a name, start, end, parent and operation id.
A span's self time is its duration minus the durations of its direct
children; children run inside their parent on one thread, so they never
overlap. Every span feeds the per-name totals (calls, self time, errors,
objective evaluations, work). Span records are kept in memory only for the
layers named in ``record`` and written out by the caller when the run
ends: the hot leaves (spef, rootfind, classify) run hundreds of times per
pull, and keeping a record for each would take hundreds of megabytes, so
they are aggregated in place.

The operation id is that of the innermost open span whose name is in
``op_roots`` (one track-and-stop run), or the id given to ``operation``
(one solver instance); it is -1 outside any operation.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0
    evals: int = 0
    work: int = 0
    durations: list = field(default_factory=list)


class _Frame:
    __slots__ = ("name", "start", "child_s", "record", "op", "evals")

    def __init__(self, name, start, record, op):
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.record = record
        self.op = op
        self.evals = 0


class Tracer:
    """Collects spans from wrapped callables; one instance per traced pass.

    ``counted`` names take a scalar objective as their first argument
    (rootfind); each evaluation made directly by that span is counted as an
    eval. ``work_of`` maps a name to a function of its return value giving
    the work the call did (pulls for a run). ``durations`` names keep every
    call's duration for percentiles.
    """

    def __init__(self, *, record=(), op_roots=(), counted=(), work_of=None,
                 durations=(), clock=time.perf_counter):
        self.clock = clock
        self.record = frozenset(record)
        self.op_roots = frozenset(op_roots)
        self.counted = frozenset(counted)
        self.work_of = dict(work_of or {})
        self.keep_durations = frozenset(durations)
        self.stats: dict[str, LayerStats] = {}
        self.spans: list[tuple] = []   # (name, start, end, parent, op, error)
        self._stack: list[_Frame] = []
        self._record_stack: list[int] = []
        self._outer_op = -1
        self._next_op = 0

    def _open(self, name):
        if name in self.op_roots:
            op = self._next_op
            self._next_op += 1
        else:
            op = self._stack[-1].op if self._stack else self._outer_op
        rec = -1
        if name in self.record:
            parent = self._record_stack[-1] if self._record_stack else -1
            rec = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, op, False))
            self._record_stack.append(rec)
        frame = _Frame(name, 0.0, rec, op)
        self._stack.append(frame)
        frame.start = self.clock()
        return frame

    def _close(self, frame, error, result=None):
        end = self.clock()
        self._stack.pop()
        dur = end - frame.start
        if self._stack:
            self._stack[-1].child_s += dur
        st = self.stats.get(frame.name)
        if st is None:
            st = self.stats[frame.name] = LayerStats()
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - frame.child_s
        st.evals += frame.evals
        if error:
            st.errors += 1
        elif frame.name in self.work_of:
            st.work += int(self.work_of[frame.name](result))
        if frame.name in self.keep_durations:
            st.durations.append(dur)
        if frame.record >= 0:
            name, _, _, parent, op, _ = self.spans[frame.record]
            self.spans[frame.record] = (name, frame.start, end, parent, op,
                                        error)
            self._record_stack.pop()

    @contextmanager
    def operation(self, op_id: int):
        """Tag the spans opened inside the block with op_id."""
        prev = self._outer_op
        self._outer_op = op_id
        try:
            yield
        finally:
            self._outer_op = prev

    def wrap(self, name, fn):
        """fn wrapped so that each call is one span called name."""
        counted = name in self.counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(name)
            if counted and args:
                objective = args[0]

                def evaluate(x):
                    if self._stack[-1] is frame:
                        frame.evals += 1
                    return objective(x)
                args = (evaluate,) + args[1:]
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(frame, True)
                raise
            self._close(frame, False, result)
            return result

        return traced


def binding_sites(package: str, fn) -> list[tuple[object, str]]:
    """Every (module, attribute) under package whose value is fn."""
    sites = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == package
                               or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                sites.append((mod, attr))
    return sites


@contextmanager
def patched(tracer: Tracer, targets, package: str = "partid"):
    """Swap each target at all of its binding sites for a traced wrapper.

    targets are (span name, module path, attribute) triples, e.g.
    ("lb_solvers.solve", "partid.lb_solvers", "solve"). Every site is
    restored on exit, whatever happens inside the block.
    """
    saved = []
    try:
        for name, mod_path, attr in targets:
            fn = getattr(importlib.import_module(mod_path), attr)
            wrapper = tracer.wrap(name, fn)
            sites = binding_sites(package, fn)
            if not sites:
                raise LookupError(f"{mod_path}.{attr} has no binding site")
            for mod, site_attr in sites:
                saved.append((mod, site_attr, fn))
                setattr(mod, site_attr, wrapper)
        yield saved
    finally:
        for mod, site_attr, fn in reversed(saved):
            setattr(mod, site_attr, fn)
