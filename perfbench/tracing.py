"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side of each layer boundary: the
library functions that the benchmark (or ``swifttrap.cli``) calls are
replaced, for the traced pass only, by wrappers that time the call and
annotate it with the counts its inputs and result expose.  Nothing inside
the package is instrumented.

A span is (id, name, start, end, parent, op).  A span opened on a worker
thread with no span of its own open is parented to the innermost span open
on the op's thread (the CLI sweep solves on a thread pool while its command
span waits).  Self time is a span's duration minus the union of the
intervals its children cover.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# the library entry points that swifttrap.cli imports; the benchmark's own
# ops call the same names, so both paths are traced at the same boundaries
LIB_NAMES = (
    "solve_bvp",
    "to_time_domain",
    "j_total",
    "integrate_ermakov",
    "simulate_nelson",
    "simulate_classical",
    "chen_polynomial",
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    error: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _euler_steps(span: float, dt: float) -> int:
    # the step rule of swifttrap.montecarlo for an explicit dt
    return max(1, int(round(span / dt)))


def _count_solve(args, kwargs, result, error):
    if error is not None:
        return {"iterations": int(getattr(error, "iterations", None) or 0), "converged": 0}
    return {"iterations": int(result.iterations), "rejections": int(result.rejections),
            "converged": 1}


def _count_ermakov(args, kwargs, result, error):
    return {} if error is not None else {"rk4_steps": int(result.t.size - 1)}


def _count_normals(span: float, cfg) -> dict:
    if cfg.dt is None:
        return {}
    return {"normals": int(cfg.n_particles) * (1 + _euler_steps(span, float(cfg.dt)))}


def _count_nelson(args, kwargs, result, error):
    run, cfg = args[0], args[1]
    return _count_normals(float(run.t[-1] - run.t[0]), cfg)


def _count_classical(args, kwargs, result, error):
    kbar_t, cfg = args[0], args[2]
    t0, t1 = kbar_t.span
    return _count_normals(float(t1 - t0), cfg)


_COUNTERS = {
    "solve_bvp": _count_solve,
    "integrate_ermakov": _count_ermakov,
    "simulate_nelson": _count_nelson,
    "simulate_classical": _count_classical,
}


class Tracer:
    """Collects spans in memory; one instance per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._op_stack: list[Span] | None = None  # the stack of the thread running the op

    def _stack(self) -> list[Span]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            op_stack = self._op_stack
            parent = op_stack[-1] if op_stack else None
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        span = Span(id=sid, name=name, start=time.perf_counter(),
                    parent=parent.id if parent is not None else None,
                    op=parent.op if parent is not None else sid)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        except BaseException as err:
            s.error = type(err).__name__
            raise
        finally:
            self._close(s)

    @contextmanager
    def op(self, name: str):
        """Root span of one benchmark op, opened on the thread that runs it."""
        with self.span(name) as s:
            self._op_stack = self._stack()
            try:
                yield s
            finally:
                self._op_stack = None

    def wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                s.error = type(err).__name__
                if counter is not None:
                    s.counts = counter(args, kwargs, None, err)
                self._close(s)
                raise
            if counter is not None:
                s.counts = counter(args, kwargs, result, None)
            self._close(s)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, namespace):
        """Replace the LIB_NAMES attributes of namespace by span recorders."""
        saved = {name: getattr(namespace, name) for name in LIB_NAMES
                 if hasattr(namespace, name)}
        for name, fn in saved.items():
            setattr(namespace, name, self.wrap(name, fn))
        try:
            yield
        finally:
            for name, fn in saved.items():
                setattr(namespace, name, fn)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(c.start, s.start), min(c.end, s.end))
                             for c in children.get(s.id, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = s.duration - covered
    return out


def span_records(spans: list[Span], t_origin: float) -> list[dict]:
    """Serializable span list, times relative to t_origin."""
    selfs = self_times(spans)
    return [{"id": s.id, "name": s.name, "parent": s.parent, "op": s.op,
             "start_s": s.start - t_origin, "end_s": s.end - t_origin,
             "self_s": selfs[s.id], "error": s.error, "counts": s.counts}
            for s in sorted(spans, key=lambda s: s.start)]
