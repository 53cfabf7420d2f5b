"""Span tracer installed around the public functions of each respectra module.

The package imports by name (``from .friedrichs import find_pole``), so a
function is bound in several module namespaces at once.  ``Tracer.install``
replaces every binding of each target with one shared wrapper and
``Tracer.uninstall`` puts the originals back.  Nothing inside ``src/`` is
edited.

Each wrapped call measures its wall time and subtracts the time of the
wrapped calls it made (its children), which gives its self time.  Calls,
self time and a few result-derived figures are summed per (job kind,
function).  Spans of functions that are called at most a few hundred times
per job are kept in memory as (id, parent id, name, start, end) and
written out at the end of the run; the hot leaves (``eval_V2``,
``pole_kernel_integral``, ``pair_coeffs``), which run tens of thousands of
times per kernel job, are only counted.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

import respectra
from respectra import (barrier, cli, contour, dynamics, friedrichs, liouville, model,
                       oracle, perturbation, states)

# (layer, defining module, attribute, hot)
FUNCTIONS = [
    ("contour", contour, "build_contour", False),
    ("contour", contour, "pole_kernel_integral", True),
    ("friedrichs", friedrichs, "find_pole", False),
    ("friedrichs", friedrichs, "exact_system", False),
    ("perturbation", perturbation, "pair_coeffs", True),
    ("model", model, "eval_V2", True),
    ("dynamics", dynamics, "survival_curve", False),
    ("dynamics", dynamics, "oracle_survival_curve", False),
    ("oracle", oracle, "discretize", False),
    ("liouville", liouville, "evolve_state", False),
    ("barrier", barrier, "resonance_width", False),
    ("barrier", barrier, "width_sweep", False),
    ("cli", cli, "main", False),
]

# (layer, class, attribute, metric name)
METHODS = [
    ("perturbation", perturbation.BiorthogonalSystem, "from_exact", "from_exact"),
    ("perturbation", perturbation.BiorthogonalSystem, "from_perturbation", "from_perturbation"),
    ("perturbation", perturbation.BiorthogonalSystem, "overlap_tables", "overlap_tables"),
    ("liouville", liouville.LiouvilleSystem, "__init__", "LiouvilleSystem"),
    ("liouville", liouville.GeneralizedState, "expect", "GeneralizedState.expect"),
]

NAMESPACES = [respectra, barrier, cli, contour, dynamics, friedrichs, liouville, model,
              oracle, perturbation, states]


def _find_pole_extra(stat, result):
    stat["iterations"] += result.iterations
    stat["newton"] += result.method == "newton"


def _discretize_extra(stat, result):
    dim = result.n + 1
    # dense symmetric eigendecomposition with vectors, ~9 dim^3 flops
    # (Golub & Van Loan); the Hamiltonian and the transform are complex
    # (16 bytes per entry).  Both are computed from n, not measured.
    stat["flops_computed"] += 9.0 * dim**3
    stat["bytes_computed"] += 2.0 * 16.0 * dim**2


_EXTRA = {"friedrichs.find_pole": _find_pole_extra, "oracle.discretize": _discretize_extra}


def _new_stat():
    return defaultdict(float)


class Tracer:
    """Per-function counters and spans for one benchmark process."""

    def __init__(self):
        self.active = False
        self.job = None
        self.stats = defaultdict(_new_stat)      # (job label, name) -> counters
        self.spans = []
        self._local = threading.local()          # per-thread [child_time, span_id] stack
        self._lock = threading.Lock()
        self._next_id = 1
        self._saved = []

    @property
    def _stack(self):
        # ``validate`` runs its checks on worker threads: each thread nests
        # its own calls; a worker's top-level calls have no parent span
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- installation --------------------------------------------------------
    def install(self):
        if self._saved:
            return
        for layer, mod, attr, hot in FUNCTIONS:
            orig = getattr(mod, attr)
            wrapper = self._wrap(f"{layer}.{attr}", orig, hot)
            for ns in NAMESPACES:
                if ns.__dict__.get(attr) is orig:
                    self._saved.append((ns, attr, orig))
                    setattr(ns, attr, wrapper)
        for layer, cls, attr, label in METHODS:
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapper = classmethod(self._wrap(f"{layer}.{label}", raw.__func__, False))
            else:
                wrapper = self._wrap(f"{layer}.{label}", raw, False)
            self._saved.append((cls, attr, raw))
            setattr(cls, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []

    # -- recording ------------------------------------------------------------
    def _wrap(self, name, fn, hot):
        tracer = self
        extra = _EXTRA.get(name)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer._call(name, fn, hot, extra, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _call(self, name, fn, hot, extra, args, kwargs):
        stack = self._stack
        parent = stack[-1][1] if stack else 0
        frame = [0.0, parent]
        if not hot:
            with self._lock:
                frame[1] = self._next_id
                self._next_id += 1
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dt = t1 - t0
            if stack:
                stack[-1][0] += dt
            with self._lock:
                stat = self.stats[(self.job, name)]
                stat["calls"] += 1
                stat["self_s"] += dt - frame[0]
                if not hot:
                    self.spans.append((frame[1], parent, name, t0, t1))
        if extra is not None:
            with self._lock:
                extra(stat, result)
        return result

    def job_span(self, label):
        """Context manager that opens the root span of one job."""
        return _JobSpan(self, label)


class _JobSpan:
    def __init__(self, tracer, label):
        self.tracer = tracer
        self.label = label

    def __enter__(self):
        tr = self.tracer
        tr.job = self.label
        self.frame = [0.0, tr._next_id]
        tr._next_id += 1
        tr._stack.append(self.frame)
        tr.active = True
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        t1 = time.perf_counter()
        tr.active = False
        tr._stack.pop()
        tr.spans.append((self.frame[1], 0, f"job:{self.label}", self.t0, t1))
        tr.job = None
        return False
