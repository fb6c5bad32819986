"""Spans recorded from outside the program, for the traced run.

:class:`Tracer` replaces the public function each layer is entered
through with a wrapper that records a span (name, start, end, thread,
parent span, request id) and, for some layers, a count.  Nothing in the
program changes; :meth:`Tracer.uninstall` puts every original back.

Parents: a span opened on a thread that has no open span of its own
(a build on the service's executor, a GC pause there) takes the
innermost open span of the client thread.  The loop is closed with one
request in flight, so that is the request the work was done for.  The
adaptation tier's background builds work for no request: their spans,
like any opened with no request in flight, are roots.

Spans stay in memory; :func:`write_chrome_trace` writes them once, at
the end, as Chrome trace-event JSON that Perfetto and
``chrome://tracing`` open offline.
"""

from __future__ import annotations

import gc
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

import repro.analysis.dataflow as dataflow
import repro.core.mcssapre.driver as mc_driver
import repro.profiles.probes as probes
import repro.profiles.probes.reconstruct as reconstruct
import repro.serve.adapt.manager as adapt_manager
import repro.serve.server as server
from repro.core.solvers.lospre import LospreSolver
from repro.core.solvers.mincut import MinCutSolver
from repro.profiles.probes.flowsys import FlowSystem
from repro.serve.adapt.drift import DriftDetector
from repro.serve.adapt.live import LiveProfile
from repro.serve.store import ArtifactStore

#: Span name of the root span around one ``CompileService.handle`` call.
REQUEST = "request"

#: Thread-name prefix of the adaptation tier's executor: its promotion
#: and recompile builds work for no request, so their spans are roots.
BACKGROUND = "repro-adapt"


class Span:
    __slots__ = ("sid", "name", "start", "end", "tid", "parent", "rid", "count")

    def __init__(self, sid, name, start, tid, parent, rid) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.tid = tid
        self.parent = parent
        self.rid = rid
        self.count = 0


class Tracer:
    """Records spans around the layers' public entry points."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: The client thread's span stack while a request is in flight.
        self._client: list[Span] | None = None
        self._patches: list[tuple[object, str, object, bool]] = []
        #: While set, nothing is recorded (the client's own work).
        self.paused = False

    # -- recording ------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, rid=None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if (
            parent is None
            and rid is None
            and not threading.current_thread().name.startswith(BACKGROUND)
        ):
            client = self._client
            try:
                parent = client[-1] if client else None
            except IndexError:  # the request finished meanwhile
                parent = None
        span = Span(
            next(self._ids),
            name,
            time.perf_counter_ns(),
            threading.get_ident(),
            parent.sid if parent is not None else 0,
            parent.rid if parent is not None else rid,
        )
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def request(self, rid: int, handle, request):
        """Call ``handle(request)`` inside the root span of request *rid*."""
        span = self._open(REQUEST, rid=rid)
        self._client = self._stack()
        try:
            return handle(request)
        finally:
            self._client = None
            self._close(span)

    def traced(self, fn, name: str, count=None):
        """*fn* wrapped in a span; ``count(result)`` sets the span's count."""

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span.count = count(result)
                return result
            finally:
                self._close(span)

        return wrapper

    def _gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            if not self.paused:
                self._local.gc_span = self._open("runtime.gc")
        else:
            span = getattr(self._local, "gc_span", None)
            if span is not None:
                self._local.gc_span = None
                self._close(span)

    # -- installation ---------------------------------------------------
    def _patch(self, owner, attr: str, new) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, new)

    def _wrap(self, owner, attr: str, name: str, count=None) -> None:
        self._patch(owner, attr, self.traced(getattr(owner, attr), name, count))

    def install(self) -> None:
        """Wrap every layer.  Call before constructing the service: it
        binds ``build_artifact`` when it is constructed."""
        self._wrap(server, "parse_function", "parse")
        self._wrap(server, "prepare", "prepare")
        self._wrap(server, "artifact_key", "key")
        self._wrap(server, "structural_key", "key")
        self._wrap(adapt_manager, "artifact_key", "key")
        self._wrap(ArtifactStore, "get", "store.get")
        self._wrap(ArtifactStore, "put", "store.put")
        self._wrap(server, "execute_artifact", "execute", lambda r: r.steps)
        self._wrap(server, "build_artifact", "build")
        make_runner = server.make_runner
        self._patch(
            server,
            "make_runner",
            lambda engine: self.traced(make_runner(engine), "train"),
        )
        self._wrap(probes, "run_probed", "train")
        self._wrap(server, "compile_variant", "passes")
        self._wrap(mc_driver, "build_frgs", "mcssapre.frg", len)
        self._wrap(mc_driver, "solve_step3", "mcssapre.step3")
        self._wrap(dataflow, "solve_pre_dataflow", "mcssapre.dense_dataflow")
        self._wrap(mc_driver, "build_reduced_graph", "mcssapre.reduce")
        self._wrap(MinCutSolver, "solve", "solver")
        self._wrap(LospreSolver, "solve", "solver")
        self._wrap(
            mc_driver, "compute_will_be_avail_from_cut", "mcssapre.willbeavail"
        )
        self._wrap(mc_driver, "finalize", "mcssapre.finalize")
        self._wrap(mc_driver, "apply_code_motion", "mcssapre.codemotion")
        self._wrap(server, "compile_function", "lower")
        self._wrap(probes, "try_place_probes", "probes.place")
        self._wrap(reconstruct, "reconstruct_profile", "probes.reconstruct")
        self._wrap(FlowSystem, "solve", "probes.solve")
        self._wrap(LiveProfile, "fold", "adapt.fold")
        self._wrap(DriftDetector, "check", "adapt.drift_check")
        self._wrap(server, "run_function", "adapt.interp")
        gc.callbacks.append(self._gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._gc)
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()


# -- analysis ------------------------------------------------------------
def add_build_waits(spans: list[Span]) -> list[Span]:
    """Synthesise one ``build.wait`` span per request that waited on the
    build executor.

    On a miss the client thread is idle between the end of the
    ``store.get`` that missed and the start of ``execute``: it waits on
    the build.  That interval becomes a span under the request, and the
    executor's spans inside it become its children, so its self time is
    the wait minus build busy time.
    """
    by_parent: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        by_parent[span.parent].append(span)
    waits = []
    ids = itertools.count(max((s.sid for s in spans), default=0) + 1)
    for root in spans:
        if root.name != REQUEST:
            continue
        kids = by_parent[root.sid]
        gets = [s for s in kids if s.name == "store.get" and s.tid == root.tid]
        execs = [s for s in kids if s.name == "execute" and s.tid == root.tid]
        workers = [s for s in kids if s.tid != root.tid and s.name != "runtime.gc"]
        if not (gets and execs and workers):
            continue
        wait = Span(next(ids), "build.wait", gets[0].end, root.tid, root.sid, root.rid)
        wait.end = execs[-1].start
        for span in workers:
            if span.start >= wait.start and span.end <= wait.end:
                span.parent = wait.sid
        waits.append(wait)
    return spans + waits


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> self time in ns: duration minus the union of its
    children's intervals (children on other threads included)."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0
        cursor = span.start
        for start, end in sorted(children.get(span.sid, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out[span.sid] = span.end - span.start - covered
    return out


def write_chrome_trace(spans: list[Span], path: Path, workload: str) -> None:
    """Chrome trace-event JSON: one complete ("X") event per span."""
    origin = min((s.start for s in spans), default=0)
    names = {t.ident: t.name for t in threading.enumerate()}
    names[threading.main_thread().ident] = "client"
    tids: dict[int, int] = {}
    events = []
    for span in sorted(spans, key=lambda s: s.start):
        tid = tids.setdefault(span.tid, len(tids) + 1)
        events.append({
            "name": span.name,
            "ph": "X",
            "pid": 1,
            "tid": tid,
            "ts": (span.start - origin) / 1000,
            "dur": (span.end - span.start) / 1000,
            "args": {
                "request_id": span.rid,
                "span_id": span.sid,
                "parent": span.parent,
                "count": span.count,
            },
        })
    meta = [{"name": "process_name", "ph": "M", "pid": 1,
             "args": {"name": f"servebench {workload}"}}]
    meta += [{"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
              "args": {"name": names.get(ident, f"thread-{tid}")}}
             for ident, tid in tids.items()]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": meta + events,
                                "displayTimeUnit": "ms"}))


#: Per-layer metrics of the timed phase, per timed request:
#: metric -> (span name, field).  "ms" is self time; "calls" the number
#: of spans; "count" the sum of the spans' counts.
TIMED_LAYERS = {
    "parse.ms": ("parse", "ms"),
    "prepare.ms": ("prepare", "ms"),
    "key.ms": ("key", "ms"),
    "store.get_ms": ("store.get", "ms"),
    "store.put_ms": ("store.put", "ms"),
    "execute.ms": ("execute", "ms"),
    "execute.steps": ("execute", "count"),
    "train.ms": ("train", "ms"),
    "passes.ms": ("passes", "ms"),
    "mcssapre.frg.ms": ("mcssapre.frg", "ms"),
    "mcssapre.classes": ("mcssapre.frg", "count"),
    "mcssapre.step3.ms": ("mcssapre.step3", "ms"),
    "mcssapre.dense_dataflow.ms": ("mcssapre.dense_dataflow", "ms"),
    "mcssapre.dense_dataflow.calls": ("mcssapre.dense_dataflow", "calls"),
    "mcssapre.reduce.ms": ("mcssapre.reduce", "ms"),
    "solver.ms": ("solver", "ms"),
    "solver.calls": ("solver", "calls"),
    "mcssapre.willbeavail.ms": ("mcssapre.willbeavail", "ms"),
    "mcssapre.finalize.ms": ("mcssapre.finalize", "ms"),
    "mcssapre.codemotion.ms": ("mcssapre.codemotion", "ms"),
    "lower.ms": ("lower", "ms"),
    "build.wait_ms": ("build.wait", "ms"),
    "probes.reconstruct.ms": ("probes.reconstruct", "ms"),
    "probes.reconstruct.calls": ("probes.reconstruct", "calls"),
    "probes.solve.ms": ("probes.solve", "ms"),
    "adapt.fold.ms": ("adapt.fold", "ms"),
    "adapt.drift_check.ms": ("adapt.drift_check", "ms"),
    "runtime.gc_ms": ("runtime.gc", "ms"),
    "request.other_ms": (REQUEST, "ms"),
}

#: Per-layer metrics whose work happens during set-up, per warm-up
#: request: probe placement runs in the promotion builds, tier-0 runs
#: precede promotion.
SETUP_LAYERS = {
    "probes.place.ms": ("probes.place", "ms"),
    "adapt.interp.ms": ("adapt.interp", "ms"),
}


def summarize(spans: list[Span], start: int, end: int) -> dict[str, dict]:
    """Span name -> {"ms": self ms, "wall_ms", "calls", "count"} over the
    spans that started in ``[start, end)`` (perf_counter_ns)."""
    own = self_times(spans)
    table: dict[str, dict] = {}
    for span in spans:
        if start <= span.start < end:
            row = table.setdefault(
                span.name, {"ms": 0.0, "wall_ms": 0.0, "calls": 0, "count": 0}
            )
            row["ms"] += own[span.sid] / 1e6
            row["wall_ms"] += (span.end - span.start) / 1e6
            row["calls"] += 1
            row["count"] += span.count
    return table


def layer_metrics(setup: dict, timed: dict, n_setup: int, n_timed: int) -> dict:
    """The per-layer metrics from two :func:`summarize` tables."""
    out = {}
    for layers, table, n in (
        (TIMED_LAYERS, timed, n_timed),
        (SETUP_LAYERS, setup, n_setup),
    ):
        for metric, (name, field) in layers.items():
            out[metric] = table.get(name, {}).get(field, 0) / n
    requests = timed[REQUEST]
    out["trace.coverage"] = 1.0 - requests["ms"] / requests["wall_ms"]
    return out
