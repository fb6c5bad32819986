"""The closed loop: set up a service, serve a stream, check every answer.

One client thread sends one request at a time to
``CompileService.handle`` and times it from the client's side.  The
service gets ``max_workers`` no larger than the machine's core count.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.serve.adapt.manager import AdaptConfig
from repro.serve.server import CompileService, ServeResponse

from servebench import tracing
from servebench.workloads import Item, Stream

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5

#: A compile workload's set-up is one small compile, so it affords more
#: of them: one before each of its first this many timed passes, so
#: that they spread over the run instead of all falling in one slow
#: stretch of the CPU.
COLD_SETUPS = 20

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

#: Background promotion builds must land within this many seconds.
DRAIN_TIMEOUT_S = 120.0

#: Service counters that move only when the adaptation tier builds or
#: swaps an artifact.  Timing starts after every such build has landed,
#: so any change of these during a timed pass counts as a failure.
BACKGROUND_COUNTERS = ("tier_promotions", "drift_events", "recompiles",
                       "hot_swaps")


@dataclass
class Served:
    """What the client saw in one phase.  Answers are checked as they
    arrive; only the first pass's responses are kept (later passes
    repeat its requests), so the client's own heap stays flat."""

    #: ``served_by`` every response must carry (None: not checked).
    tier: str | None = None
    latencies: list[float] = field(default_factory=list)
    #: Per position in a timed pass, its fastest time over the passes.
    best: list[float] = field(default_factory=list)
    #: Timed passes served so far.
    passes: int = 0
    first: list[tuple[Item, ServeResponse]] = field(default_factory=list)
    #: Program -> statement count of the artifact the first pass served.
    sizes: dict[str, int] = field(default_factory=dict)
    failures: Counter = field(default_factory=Counter)
    served_by: Counter = field(default_factory=Counter)
    #: How the serving services' counters moved during the phase.
    counts: Counter = field(default_factory=Counter)
    wall_s: float = 0.0

    def record(self, item: Item, response: ServeResponse, keep: bool) -> None:
        """Check one answer.  A wrong answer is an ok response whose
        observable behaviour differs from the reference interpreter's."""
        self.served_by[response.served_by] += 1
        if response.status != "ok":
            self.failures[response.status] += 1
        elif response.degraded:
            self.failures["degraded"] += 1
        elif response.observable() != item.expected:
            self.failures["wrong_answer"] += 1
        elif self.tier is not None and response.served_by != self.tier:
            self.failures[f"served_by_{response.served_by}"] += 1
        if keep:
            self.first.append((item, response))


class Client:
    """The single client thread: sends, times, and records."""

    def __init__(self, stream: Stream, tracer: tracing.Tracer | None = None):
        self.stream = stream
        self.tracer = tracer
        self.sent = 0

    def service(self) -> CompileService:
        workers = min(2, os.cpu_count() or 1)
        adapt = AdaptConfig(profiling="probes") if self.stream.adaptive else None
        return CompileService(max_workers=workers, adapt=adapt)

    def send(
        self, service: CompileService, items: list[Item], out: Served, keep: bool
    ) -> None:
        handle = service.handle
        tracer = self.tracer
        for item in items:
            self.sent += 1
            t0 = time.perf_counter()
            if tracer is None:
                response = handle(item.request)
            else:
                response = tracer.request(self.sent, handle, item.request)
            out.latencies.append(time.perf_counter() - t0)
            out.record(item, response, keep)

    def setup(self, warm: Served) -> tuple[CompileService, float]:
        """Construct a service and serve the warm-up requests; returns the
        service and the set-up time (background builds included).  It
        starts on a collected heap, as every timed compile does."""
        with self.untraced():
            gc.collect()
        t0 = time.perf_counter()
        service = self.service()
        self.send(service, self.stream.warmup, warm, keep=False)
        if service.adapt is not None and not service.adapt.drain(DRAIN_TIMEOUT_S):
            raise RuntimeError("promotion builds did not land in time")
        return service, time.perf_counter() - t0

    def serve(
        self, service: CompileService, timed: Served, seconds: float | None
    ) -> None:
        """Serve whole passes of the stream into *timed*: exactly one when
        *seconds* is None, else passes until *seconds* have been measured.
        A pass in progress is always finished."""
        with self.untraced():
            gc.collect()
        before = counters(service)
        t0 = time.perf_counter()
        while True:
            start = len(timed.latencies)
            keep = not timed.first
            self.send(service, self.stream.timed, timed, keep)
            if keep:
                with self.untraced():
                    timed.sizes = sizes(service, timed.first)
            lap = timed.latencies[start:]
            timed.best = list(map(min, timed.best, lap)) if timed.best else lap
            timed.passes += 1
            elapsed = time.perf_counter() - t0
            if seconds is None or elapsed >= seconds:
                timed.wall_s += elapsed
                timed.counts += moved(before, counters(service))
                return

    def serve_cold(self, timed: Served) -> None:
        """Serve one more pass of a compile stream into *timed*.  Each
        request gets a service of its own, built for it after a full
        collection.  So every request is a miss on an empty store, and
        its time -- the collector's share included -- does not depend on
        what the requests before it left on the heap."""
        t0 = time.perf_counter()
        keep = not timed.first
        for position, item in enumerate(self.stream.timed):
            service = self.service()
            try:
                with self.untraced():
                    gc.collect()
                before = counters(service)
                self.send(service, [item], timed, keep)
                timed.counts += moved(before, counters(service))
                if keep:
                    with self.untraced():
                        timed.sizes.update(sizes(service, timed.first[-1:]))
            finally:
                service.close()
            latency = timed.latencies[-1]
            if keep:
                timed.best.append(latency)
            else:
                timed.best[position] = min(timed.best[position], latency)
        timed.passes += 1
        timed.wall_s += time.perf_counter() - t0

    @contextmanager
    def untraced(self):
        """The client's own work between requests, kept out of the trace."""
        if self.tracer is not None:
            self.tracer.paused = True
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.paused = False


def sizes(service: CompileService, first) -> dict[str, int]:
    """Statement count of the artifact each ok response was served by."""
    out = {}
    for item, response in first:
        if response.status != "ok":
            continue  # counted as a failure; it has no artifact
        artifact, _tier = service.store.get(response.key)
        if artifact is None:
            raise RuntimeError(f"artifact of {item.program} left the store")
        out[item.program] = artifact.func.statement_count()
    return out


def counters(service: CompileService) -> dict:
    return service.metrics.to_dict()["counters"]


def moved(before: dict, after: dict) -> Counter:
    """How far each counter moved between two snapshots."""
    return Counter({name: after[name] - before[name] for name in after})


def background_work(timed: Served) -> Counter:
    """Background builds and swaps while *timed* was served."""
    return Counter({
        f"background_{name}": timed.counts[name]
        for name in BACKGROUND_COUNTERS
        if timed.counts[name]
    })


# -- metrics ------------------------------------------------------------
def tail(latencies: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples) of the highest of p50, p51, ..., p99
    that has at least ``TAIL_BEYOND`` samples beyond it (nearest rank).

    The ladder stops at p99, so a workload reports the same percentile
    in every run however many samples it has."""
    ordered = sorted(latencies)
    n = len(ordered)
    for q in range(99, 49, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], q, n
    raise RuntimeError(f"{n} samples cannot give a tail with "
                       f"{TAIL_BEYOND} beyond it")


def geomean(values: list[float]) -> float:
    if not values:  # every request failed; the run reports incorrect
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quality(stream: Stream, timed: Served) -> dict:
    """Exact quality ratios of the artifacts the first pass was served by.

    ``dyn_cost_ratio``: per distinct program, served dynamic cost over
    the prepared function's cost on the same args (each distinct args
    once), then the geometric mean.  ``static_size_ratio``: optimised
    over prepared statement count, geometric mean over programs.
    """
    served_cost: dict[str, dict[tuple, int]] = {}
    base_cost: dict[str, dict[tuple, int]] = {}
    for item, response in timed.first:
        if response.status != "ok":
            continue  # counted as a failure; it has no cost to compare
        args = item.request.args
        served_cost.setdefault(item.program, {})[args] = response.dynamic_cost
        base_cost.setdefault(item.program, {})[args] = item.base_cost
    dyn, size, rows = [], [], {}
    for name in sorted(served_cost):
        row = {
            "dynamic_cost": sum(served_cost[name].values()),
            "base_cost": sum(base_cost[name].values()),
            "size": timed.sizes[name],
            "base_size": stream.programs[name].size,
        }
        dyn.append(row["dynamic_cost"] / row["base_cost"])
        size.append(row["size"] / row["base_size"])
        rows[name] = row
    return {"dyn_cost_ratio": geomean(dyn), "static_size_ratio": geomean(size),
            "programs": rows}


def _cold_rows(stream: Stream, timed: Served, qual: dict) -> dict:
    """Per-program rows of cold-compile and the compile-time curve."""
    rows = []
    for (item, _response), latency in zip(timed.first, timed.best):
        program = qual["programs"].get(item.program, {})
        rows.append({
            "name": item.program,
            "blocks": stream.programs[item.program].blocks,
            "compile_ms": latency * 1e3,
            "dynamic_cost": program.get("dynamic_cost"),
            "base_cost": item.base_cost,
        })
    rows.sort(key=lambda row: row["blocks"])
    xs = [math.log(row["blocks"]) for row in rows]
    ys = [math.log(row["compile_ms"]) for row in rows]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )
    return {
        "programs": rows,
        "curve": {
            "points": [[row["blocks"], row["compile_ms"]] for row in rows],
            "loglog_slope": slope,
        },
    }


def _report(stream: Stream, phases: list[Served], timed: Served) -> dict:
    """Failures over every phase; quality and mix of the *timed* phase."""
    causes = sum((phase.failures for phase in phases), background_work(timed))
    qual = quality(stream, timed)
    report = {
        "workload": stream.workload,
        "seed": stream.seed,
        "attempted": sum(len(phase.latencies) for phase in phases),
        "failed": sum(causes.values()),
        "failures": dict(causes),
        "timed_requests": len(timed.latencies),
        "timed_wall_s": timed.wall_s,
        "passes": timed.passes,
        "served_by": dict(sorted(timed.served_by.items())),
        "quality": qual,
    }
    if stream.workload == "cold-compile":
        report["cold"] = _cold_rows(stream, timed, qual)
    return report


def measure(stream: Stream, seconds: float) -> tuple[dict, dict]:
    """The untraced run: ``SETUPS`` set-ups, then whole passes for at
    least *seconds* on the last one's service.  A compile workload
    instead serves whole passes with :meth:`Client.serve_cold` for at
    least *seconds*, with one of its ``COLD_SETUPS`` set-ups before each
    of the first passes.  Returns (end-to-end metrics, report).

    The timings are taken over each request's best time: for every
    position in a pass, the fastest of its times over the run's passes.
    The CPU of a shared machine can run up to twice as slow for
    stretches of seconds to minutes; a request's best time skips the
    stretches shorter than the run, where a median over every timed
    request moves with them."""
    client = Client(stream)
    warm, timed = Served(), Served(tier=stream.timed_tier)
    cold = stream.timed_tier == "compile"
    setups = []

    def setup() -> CompileService:
        service, elapsed = client.setup(warm)
        setups.append(elapsed)
        return service

    if cold:
        while timed.wall_s < seconds or len(setups) < COLD_SETUPS:
            if len(setups) < COLD_SETUPS:
                setup().close()
            client.serve_cold(timed)
    else:
        for _ in range(SETUPS - 1):
            setup().close()
        service = setup()
        try:
            client.serve(service, timed, seconds)
        finally:
            service.close()
    report = _report(stream, [warm, timed], timed)
    value, percentile, samples = tail(timed.best)
    metrics = {
        "latency_p50_ms": statistics.median(timed.best) * 1e3,
        "latency_tail_ms": value * 1e3,
        "throughput_rps": len(timed.best) / sum(timed.best),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "dyn_cost_ratio": report["quality"]["dyn_cost_ratio"],
        "static_size_ratio": report["quality"]["static_size_ratio"],
    }
    report.update(
        tail_percentile=percentile,
        tail_samples=samples,
        setups_s=setups,
        end_to_end=metrics,
    )
    return metrics, report


def _once(client: Client, warm: Served, timed: Served) -> tuple[dict, int]:
    """One set-up and one timed pass.  Returns the set-up service's
    counters and the ``perf_counter_ns`` at which set-up ended."""
    service, _elapsed = client.setup(warm)
    setup_counts, t1 = counters(service), time.perf_counter_ns()
    try:
        if timed.tier != "compile":
            client.serve(service, timed, None)
    finally:
        service.close()
    if timed.tier == "compile":
        client.serve_cold(timed)
    return setup_counts, t1


def trace(stream: Stream, trace_path) -> tuple[dict, dict]:
    """The traced run: one untraced set-up and pass for the overhead
    baseline, then one traced set-up and pass.  Returns (per-layer
    metrics, report)."""
    base_warm, base = Served(), Served(tier=stream.timed_tier)
    _once(Client(stream), base_warm, base)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        warm, timed = Served(), Served(tier=stream.timed_tier)
        t0 = time.perf_counter_ns()
        setup_counts, t1 = _once(Client(stream, tracer), warm, timed)
        t2 = time.perf_counter_ns()
    finally:
        tracer.uninstall()
    report = _report(stream, [base_warm, base, warm, timed], timed)

    spans = tracing.add_build_waits(tracer.spans)
    setup_table = tracing.summarize(spans, t0, t1)
    timed_table = tracing.summarize(spans, t1, t2)
    n_setup, n_timed = len(warm.latencies), len(timed.latencies)
    metrics = tracing.layer_metrics(setup_table, timed_table, n_setup, n_timed)

    moves = timed.counts
    hits = moves["hits_memory"] + moves["hits_disk"] + moves["coalesced"]
    metrics["store.hit_rate"] = hits / moves["requests"]
    metrics["adapt.promotions"] = setup_counts["tier_promotions"] / n_setup
    metrics["adapt.drift_events"] = moves["drift_events"] / n_timed
    untraced = statistics.median(base.latencies)
    metrics["trace.overhead_pct"] = (
        statistics.median(timed.latencies) / untraced - 1.0
    ) * 100.0
    report["untraced_latency_p50_ms"] = untraced * 1e3
    report["layers"] = {"setup": setup_table, "timed": timed_table}
    report["per_layer"] = metrics
    tracing.write_chrome_trace(spans, trace_path, stream.workload)
    return metrics, report
