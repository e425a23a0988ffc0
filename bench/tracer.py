"""Span tracer that wraps fpcert's public functions from outside the package.

`Tracer.install()` replaces each traced function wherever callers look it up:
in its defining module, in every fpcert module that imported it by name (found
by identity, e.g. `cli.run_certificate` is `majorant.certify`), and on the
class for methods.  `uninstall()` puts the originals back.

Each target has one of three modes:

- span:  records a span (id, name, start, end, parent, instance) and adds to
         the per-name count, total time and self time;
- leaf:  the same count and times, but no stored span: these functions run
         hundreds of thousands of times per instance, and one record per call
         would hold tens of megabytes.  A leaf must not enclose a span target;
- count: counts calls only; the time stays in the enclosing span.

Self time is a span's duration minus the durations of its child spans on the
same thread.  All state is per thread (each thread writes only its own), so
counts stay exact under the sweep thread pool; `take()` merges and clears it
between CLI calls, when no worker thread is running.  A thread's outermost
span takes the harness span opened by `root()` as its parent.
"""
from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

# (qualified name inside fpcert, mode).  estimate and rootfind are left out:
# no workload uses sampled constants or root wraps.  Per-scalar helpers such as
# recurrence_step or Vector.__getitem__ are left out too; their cost is in the
# enclosing span's self time.
TARGETS = (
    ("exprparse.eval_expr", "leaf"),
    ("exprparse.parse_expr", "span"),
    ("core.OperatorSpec.apply", "span"),
    ("core.OperatorSpec.derivative_at", "span"),
    ("core.matrix_of", "span"),
    ("core.Vector.__init__", "count"),
    ("core.norm_of", "count"),
    ("schemes.run_outer", "span"),
    ("schemes.step_contraction", "span"),
    ("schemes.step_newton", "span"),
    ("schemes.step_modified_newton", "span"),
    ("schemes.step_custom", "span"),
    ("greens.run_integral_iteration", "span"),
    ("greens.apply_integral_operator", "span"),
    ("greens.KernelSpec.evaluate", "leaf"),
    ("sequences.ScalarSequence.__call__", "count"),
    ("sequences.ScalarSequence.values", "span"),
    ("majorant.simulate_recurrence", "span"),
    ("majorant.cert_bounded", "span"),
    ("majorant.cert_uniform_max", "span"),
    ("majorant.cert_sandwich", "span"),
    ("majorant.cert_geometric", "span"),
    ("majorant.cert_quadratic", "span"),
    ("majorant.search_witnesses", "span"),
    ("majorant.tail_bound", "span"),
    ("majorant.certify", "span"),
    ("majorant.majorant_from_constants", "span"),
    ("majorant.precheck", "span"),
    ("problems.resolve_config", "span"),
    ("cli.cmd_run", "span"),
    ("cli.cmd_certify", "span"),
    ("cli.cmd_sweep", "span"),
)

CERTS = ("majorant.cert_bounded", "majorant.cert_uniform_max", "majorant.cert_sandwich",
         "majorant.cert_geometric", "majorant.cert_quadratic")
STEPS = ("schemes.step_contraction", "schemes.step_newton",
         "schemes.step_modified_newton", "schemes.step_custom")
# counted separately: certificates evaluated as witness-search candidates
SEARCH_EDGE = "majorant.search_witnesses"


class _ThreadState:
    def __init__(self):
        self.thread = threading.current_thread()
        self.stack = []                                 # frames [name, span id, child time]
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])   # name -> [count, total, self]
        self.counts = defaultdict(int)
        self.spans = []                                 # (id, name, start, end, parent, instance)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._patches = []
        self.instance = -1
        self.root_id = -1

    def _state(self) -> _ThreadState:
        st = _ThreadState()
        self._local.state = st
        with self._lock:
            self._states.append(st)
        return st

    # -- wrappers -----------------------------------------------------

    def _wrap(self, name, fn, mode):
        local, tracer, perf = self._local, self, time.perf_counter

        if mode == "count":
            @wraps(fn)
            def counted(*args, **kwargs):
                try:
                    st = local.state
                except AttributeError:
                    st = tracer._state()
                st.counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        store = mode == "span"
        edge = name in CERTS

        @wraps(fn)
        def timed(*args, **kwargs):
            try:
                st = local.state
            except AttributeError:
                st = tracer._state()
            stack = st.stack
            parent = stack[-1] if stack else None
            frame = [name, next(tracer._ids) if store else -1, 0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                a = st.agg[name]
                a[0] += 1
                a[1] += dur
                a[2] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if store:
                    st.spans.append((frame[1], name, start, end,
                                     parent[1] if parent is not None else tracer.root_id,
                                     tracer.instance))
                if edge and parent is not None and parent[0] == SEARCH_EDGE:
                    st.counts["majorant.search_candidates"] += 1
        return timed

    def install(self):
        """Wrap every target; raises if a target no longer exists."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "fpcert" or n.startswith("fpcert.")]
        for qualname, mode in TARGETS:
            modname, *path = qualname.split(".")
            owner = sys.modules["fpcert." + modname]
            for part in path[:-1]:
                owner = getattr(owner, part)
            orig = owner.__dict__[path[-1]]
            wrapper = self._wrap(qualname, orig, mode)
            if len(path) > 1:
                self._patch(owner, path[-1], wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- harness side -------------------------------------------------

    @contextmanager
    def root(self, instance: int, name: str):
        """Open the harness span that a CLI call's outermost spans hang under."""
        st = getattr(self._local, "state", None) or self._state()
        self.instance, self.root_id = instance, next(self._ids)
        start = time.perf_counter()
        try:
            yield
        finally:
            st.spans.append((self.root_id, name, start, time.perf_counter(), -1, instance))
            self.root_id = -1

    def take(self):
        """Merge and clear all thread states: (aggregates, counts, spans)."""
        agg = defaultdict(lambda: [0, 0.0, 0.0])
        counts = defaultdict(int)
        spans = []
        with self._lock:
            for st in self._states:
                for name, (c, total, self_s) in st.agg.items():
                    a = agg[name]
                    a[0] += c
                    a[1] += total
                    a[2] += self_s
                for name, c in st.counts.items():
                    counts[name] += c
                spans.extend(st.spans)
                st.agg.clear()
                st.counts.clear()
                st.spans = []
            self._states = [st for st in self._states if st.thread.is_alive()]
        return dict(agg), dict(counts), spans
