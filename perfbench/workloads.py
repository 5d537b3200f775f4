"""The three benchmark workloads.

:func:`run` runs one of them: each ``run_*`` function takes the seed,
the measured seconds, whether this is the traced run, and a size
preset, and fills a :class:`Report`. Inputs come only from the seed
(see ``make_*_inputs``); the program receives only the generated
inputs.

An untraced run fills :attr:`Report.end_to_end`; a traced run fills
:attr:`Report.per_layer`. Every run audits a seeded sample of its
answers against the BFS oracle.
"""

from __future__ import annotations

import asyncio
import gc
import shutil
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from common import (
    Outcome,
    Tracer,
    check_distance,
    check_spg,
    fingerprint,
    hub_dominated_graph,
    mean,
    median,
    percentile,
    repo_root,
    sample_positions,
    self_peak_rss_mb,
    tail_percentile,
    work_root,
)
from httpload import (
    Connection,
    PhaseResult,
    ServerProcess,
    closed_loop,
    load_connections,
    open_loop,
    parse_metrics,
    server_peak_rss_mb,
    serving_layer_metrics,
)

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Per-request latency limit for the HTTP workloads' rate metric.
LATENCY_LIMIT_MS = 100.0

#: A run whose scheduler woke later than this (p99) is invalid.
LAG_BOUND_MS = 20.0

#: The percentile ``tail_ms`` reports. Every workload has well over ten
#: samples beyond it. The p99 of the in-process workloads sits where a
#: rare class of heavy queries starts, whose share moves with the seed,
#: so it is printed but not bounded.
TAIL_PERCENTILE = 95.0

END_TO_END = ("setup_s", "peak_rss_mb", "p50_ms", "tail_ms", "ops_per_s",
              "aux_p50_ms")

PER_LAYER = (
    "core.sketch.p50_us", "core.bidirectional.p50_us",
    "core.reverse_recover.p50_us", "core.reverse_recover.p99_us",
    "core.search.edges_traversed_mean", "core.search.levels_mean",
    "core.search.reverse_share", "core.search.recover_share",
    "core.query.alloc_peak_kb", "core.spg_edges_mean",
    "engine.distance_many.fallback_share", "engine.session.cache_hit_rate",
    "serving.http.overhead_p50_ms", "serving.batcher.batch_size_mean",
    "serving.batcher.dedup_share", "serving.batcher.queue_wait_p50_ms",
    "serving.pool.worker_busy_share", "serving.rejected", "serving.expired",
    "serving.snapshot.publish_ms",
    "dynamic.apply_batch_ms", "dynamic.rebuilds",
    "dynamic.fallback_query_share",
    "store.cache.hit_rate", "store.cache.evictions",
    "store.bytes_read_per_pair",
    "shard.cross_share", "shard.cross.p50_ms", "shard.local.p50_ms",
    "shard.partitioner.boundary_share",
    "loadgen.lag_p99_ms", "obs.trace_overhead_share",
    "trace.uncovered_share",
    "trace.self_share.loadgen", "trace.self_share.serving",
    "trace.self_share.engine", "trace.self_share.core",
    "trace.self_share.dynamic", "trace.self_share.store",
    "trace.self_share.shard",
)

UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "p50_ms": "ms", "tail_ms": "ms",
    "ops_per_s": "1/s", "aux_p50_ms": "ms",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if ".self_share." in name:
        return "ratio"
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_kb", "KiB"),
                         ("_share", "ratio"), ("_rate", "ratio"),
                         ("_per_pair", "B/pair")):
        if name.endswith(suffix):
            return unit
    return "count"


@dataclass
class Report:
    """What one run measured, plus the named figures for people."""

    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(
        default_factory=lambda: {name: 0.0 for name in PER_LAYER})
    named: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    outcome: Outcome = field(default_factory=Outcome)
    invalid: Optional[str] = None
    tracer: Optional[Tracer] = None

    def name(self, key: str, value: float, unit: str) -> None:
        self.named[key] = (float(value), unit)


# ----------------------------------------------------------------------
# Workload table: sizes, loop shape, layers. `why` is BENCHMARK.json's.
# ----------------------------------------------------------------------

WORKLOADS: Dict[str, Dict[str, Any]] = {
    "paper-queries": {
        "why": "The paper's Fig. 11 experiment in-process: QbS |R|=20 on "
               "a 500k-vertex hub graph, uniform pairs; per-query O(|V|) "
               "costs show here.",
        "loop": "closed, 1 client (spg); closed, 1 client, chunks of 256 "
                "(bulk distance)",
        "loads": ["core.sketch", "core.search", "engine.session",
                  "engine.distance_many"],
        "bypasses": ["serving", "dynamic", "store", "shard"],
        "sizes": {
            "full": dict(n=500_000, m=4, hubs=5, spokes=25_000,
                         landmarks=20, chunk=256, pairs=20_000,
                         spg_checks=3, distance_checks=4),
            "tiny": dict(n=3_000, m=4, hubs=5, spokes=600, landmarks=8,
                         chunk=32, pairs=2_000, spg_checks=3,
                         distance_checks=4),
        },
    },
    "http-read": {
        "why": "HTTP serving of QbS on a 12k-vertex twitter-shaped graph, "
               "open loop of 8-pair Zipf requests; the HTTP front, batcher, "
               "pool and cache dominate.",
        "loop": "open, fixed schedule at the nominal and high rates over "
                "<= nproc connections; then closed, <= nproc connections. "
                "Traced run only: reads on a fixed schedule beside a "
                "closed-loop writer (8-op batches) on 'repro serve "
                "--dynamic'",
        "loads": ["serving.http", "serving.batcher", "serving.pool",
                  "serving.snapshot", "engine.session", "core",
                  "dynamic (traced run)"],
        "bypasses": ["store", "shard"],
        "sizes": {
            "full": dict(n=12_000, m=8, hubs=5, spokes=2_500, landmarks=20,
                         requests=4_000, pairs_per_request=8,
                         spg_share=0.2, nominal_rps=20.0, high_rps=30.0,
                         audit_requests=6,
                         writes=dict(n=5_000, m=2, requests=1_000,
                                     pairs_per_request=8, spg_share=0.2,
                                     nominal_rps=3.0, batch_ops=8,
                                     think_s=0.2, batches=128,
                                     audit_requests=6)),
            "tiny": dict(n=600, m=4, hubs=2, spokes=120, landmarks=8,
                         requests=400, pairs_per_request=8, spg_share=0.2,
                         nominal_rps=10.0, high_rps=15.0,
                         audit_requests=4,
                         writes=dict(n=500, m=3, requests=200,
                                     pairs_per_request=8, spg_share=0.2,
                                     nominal_rps=8.0, batch_ops=8,
                                     think_s=0.2, batches=64,
                                     audit_requests=4)),
        },
    },
    "scaleout-distance": {
        "why": "Bulk distance through the scale-out tiers: a paged ppl "
               "store with a cache far below its cold tier (Zipf pairs), "
               "then a 4-shard index (uniform pairs).",
        "loop": "closed, 1 client: store chunks of 64, then shard chunks "
                "of 16",
        "loads": ["store", "shard", "engine.distance_many"],
        "bypasses": ["serving", "dynamic", "core (ppl inner family)"],
        "sizes": {
            "full": dict(store_n=10_000, m=4, block=1_500, blocks=4,
                         p_in=0.0053, p_out=0.000022, store_chunk=64,
                         shard_chunk=16, pairs=20_000, distance_checks=4,
                         spg_checks=2),
            "tiny": dict(store_n=600, m=3, block=150, blocks=4, p_in=0.04,
                         p_out=0.0005, store_chunk=16, shard_chunk=8,
                         pairs=1_000, distance_checks=4, spg_checks=2),
        },
    },
}


def run(name: str, seed: int, seconds: float, trace: bool,
        size: str = "full", **hooks) -> Report:
    """Run one workload.

    ``hooks`` reach the workload function; ``paper-queries`` accepts
    ``wrap_index``, which may replace the built index (the tests use
    it to corrupt an answer).
    """
    runner = {
        "paper-queries": run_paper_queries,
        "http-read": run_http_read,
        "scaleout-distance": run_scaleout_distance,
    }[name]
    params = WORKLOADS[name]["sizes"][size]
    workdir = work_root() / f"{name}-{seed}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True, exist_ok=True)
    report = Report()
    report.tracer = Tracer(trace)
    try:
        runner(report, params, seed, float(seconds), trace, workdir,
               **hooks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        report.per_layer.update(report.tracer.summary())
        report.tracer.write(work_root() / "traces"
                            / f"{name}-seed{seed}.json")
    return report


def _median_setup(build: Callable[[], Any],
                  discard: Callable[[Any], None], repeats: int
                  ) -> Tuple[Any, float]:
    """Set up ``repeats`` times; keep the last result, report the median."""
    times, built = [], None
    for _ in range(repeats):
        if built is not None:
            discard(built)
            built = None
            gc.collect()
        start = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - start)
    return built, median(times)


def _latency_figures(report: Report, prefix: str,
                     latencies_ms: List[float]) -> Tuple[float, float]:
    """Name p50, p95 and the highest percentile the sample supports;
    return p50 and p95, the bounded ``p50_ms`` and ``tail_ms``."""
    p50 = percentile(latencies_ms, 50)
    tail = percentile(latencies_ms, TAIL_PERCENTILE)
    report.name(f"{prefix}_p50_ms", p50, "ms")
    report.name(f"{prefix}_p{TAIL_PERCENTILE:g}_ms", tail, "ms")
    q = tail_percentile(len(latencies_ms))
    report.name(f"{prefix}_p{q:g}_ms", percentile(latencies_ms, q), "ms")
    report.name(f"{prefix}_samples", len(latencies_ms), "count")
    return p50, tail


# ----------------------------------------------------------------------
# paper-queries
# ----------------------------------------------------------------------

def make_paper_inputs(params, seed: int):
    from repro.workloads import sample_pairs

    graph = hub_dominated_graph(params["n"], params["m"], params["hubs"],
                                params["spokes"], seed)
    spg_pairs = sample_pairs(graph, params["pairs"], seed=seed + 1)
    bulk_pairs = sample_pairs(graph, params["pairs"], seed=seed + 2)
    return graph, spg_pairs, bulk_pairs


def _cycle(pairs, i: int):
    return pairs[i % len(pairs)]


def run_paper_queries(report: Report, params, seed: int, seconds: float,
                      trace: bool, workdir: Path,
                      wrap_index: Optional[Callable] = None) -> None:
    from repro import build_index
    from repro.engine.session import QueryOptions, QuerySession

    graph, spg_pairs, bulk_pairs = make_paper_inputs(params, seed)
    outcome = report.outcome
    tracer = report.tracer
    repeats = 1 if trace else SETUP_REPEATS
    index, setup_s = _median_setup(
        lambda: build_index(graph, "qbs",
                            num_landmarks=params["landmarks"]),
        lambda built: None, repeats)
    if wrap_index is not None:
        index = wrap_index(index)
    spg_session = QuerySession(index, QueryOptions(mode="spg",
                                                   cache_size=0))
    bulk_session = QuerySession(index, QueryOptions(mode="distance",
                                                    cache_size=0))
    for i in range(20):                       # warm-up, not timed
        spg_session.query(*_cycle(spg_pairs, i))

    spg_audit = sample_positions(min(200, len(spg_pairs)),
                                 params["spg_checks"], seed)
    chunk = params["chunk"]
    bulk_audit = sample_positions(min(2 * chunk, len(bulk_pairs)),
                                  params["distance_checks"], seed + 1)

    def spg_loop(budget: float, traced: bool) -> Tuple[List[float], Dict]:
        """Phase A: one client, one spg query at a time, no cache."""
        spans = tracer if traced else Tracer(False)
        latencies, kept, i = [], {}, 0
        stop = time.perf_counter() + budget
        while time.perf_counter() < stop or i <= spg_audit[-1]:
            u, v = _cycle(spg_pairs, i)
            outcome.attempted += 1
            start = time.perf_counter()
            try:
                with spans.request(), spans.span("engine.session.query"):
                    record = spg_session.query(u, v)
            except Exception as exc:      # noqa: BLE001 - counted
                outcome.fail(f"spg({u}, {v}) raised {exc!r}")
                i += 1
                continue
            latencies.append(time.perf_counter() - start)
            if i in spg_audit:
                kept[i] = record.value
            i += 1
        return latencies, kept

    def bulk_loop(budget: float, traced: bool) -> Tuple[List[float], int,
                                                         Dict]:
        """Phase B: bulk distance through the session, fixed chunks."""
        spans = tracer if traced else Tracer(False)
        latencies, kept, done, c = [], {}, 0, 0
        stop = time.perf_counter() + budget
        while time.perf_counter() < stop or c < 2:
            base = (c * chunk) % len(bulk_pairs)
            pairs = bulk_pairs[base:base + chunk]
            outcome.attempted += len(pairs)
            start = time.perf_counter()
            try:
                with spans.request(), \
                        spans.span("engine.session.query_many"):
                    records = bulk_session.query_many(pairs)
            except Exception as exc:      # noqa: BLE001 - counted
                outcome.fail(f"query_many raised {exc!r}", len(pairs))
                c += 1
                continue
            latencies.append(time.perf_counter() - start)
            done += len(pairs)
            for offset, record in enumerate(records):
                if c * chunk + offset in bulk_audit:
                    kept[c * chunk + offset] = record.value
            c += 1
        return latencies, done, kept

    if not trace:
        spg_lat, spg_kept = spg_loop(seconds * 0.65, False)
        bulk_lat, bulk_done, bulk_kept = bulk_loop(seconds * 0.35, False)
        spg_ms = [t * 1000.0 for t in spg_lat]
        p50, tail = _latency_figures(report, "spg", spg_ms)
        qps = len(spg_lat) / sum(spg_lat)
        pairs_per_s = bulk_done / sum(bulk_lat)
        report.name("spg_qps", qps, "1/s")
        report.name("distance_pairs_per_s", pairs_per_s, "1/s")
        report.end_to_end.update({
            "setup_s": setup_s, "peak_rss_mb": self_peak_rss_mb(),
            "p50_ms": p50, "tail_ms": tail, "ops_per_s": qps,
            "aux_p50_ms": median(bulk_lat) * 1000.0,
        })
    else:
        plain, _ = spg_loop(seconds * 0.15, False)
        traced, spg_kept = spg_loop(seconds * 0.15, True)
        report.per_layer["obs.trace_overhead_share"] = (
            mean(traced) / mean(plain) - 1.0)
        probe = core_probe(index, spg_pairs, seconds * 0.35, tracer)
        report.per_layer.update(probe.metrics())
        report.per_layer["core.query.alloc_peak_kb"] = alloc_peak_kb(
            index, spg_pairs)
        calls = count_fallbacks(index, tracer)
        _, bulk_done, bulk_kept = bulk_loop(seconds * 0.3, True)
        report.per_layer["engine.distance_many.fallback_share"] = (
            calls[0] / bulk_done if bulk_done else 0.0)
        del index.distance                 # drop the counting wrapper

    for i, value in spg_kept.items():
        u, v = _cycle(spg_pairs, i)
        check_spg(outcome, graph, u, v, value.distance, value.edges)
    for i, value in bulk_kept.items():
        u, v = bulk_pairs[i % len(bulk_pairs)]
        check_distance(outcome, graph, u, v, value)
    report.name("graph_vertices", graph.num_vertices, "count")
    report.name("graph_edges", graph.num_edges, "count")


@dataclass
class CoreProbe:
    sketch_us: List[float] = field(default_factory=list)
    bidirectional_us: List[float] = field(default_factory=list)
    reverse_recover_us: List[float] = field(default_factory=list)
    edges: List[int] = field(default_factory=list)
    levels: List[int] = field(default_factory=list)
    reverse: List[bool] = field(default_factory=list)
    recover: List[bool] = field(default_factory=list)
    spg_edges: List[int] = field(default_factory=list)

    def metrics(self) -> Dict[str, float]:
        if not self.sketch_us:
            return {}
        return {
            "core.sketch.p50_us": percentile(self.sketch_us, 50),
            "core.bidirectional.p50_us":
                percentile(self.bidirectional_us, 50),
            "core.reverse_recover.p50_us":
                percentile(self.reverse_recover_us, 50),
            "core.reverse_recover.p99_us":
                percentile(self.reverse_recover_us, 99),
            "core.search.edges_traversed_mean": mean(self.edges),
            "core.search.levels_mean": mean(self.levels),
            "core.search.reverse_share": mean(self.reverse),
            "core.search.recover_share": mean(self.recover),
            "core.spg_edges_mean": mean(self.spg_edges),
        }


def core_probe(index, pairs, budget: float, tracer: Tracer,
               min_queries: int = 20) -> CoreProbe:
    """Time ``sketch``, ``distance`` and ``query_with_stats`` per pair.

    ``distance`` is the sketch plus the bounded bidirectional stage;
    ``query_with_stats`` adds the reverse and recover searches. Pairs
    with a landmark endpoint have no sketch and are skipped.
    """
    probe = CoreProbe()
    is_landmark = index.labelling.is_landmark
    stop = time.perf_counter() + budget
    i = 0
    while (time.perf_counter() < stop or len(probe.sketch_us) < min_queries) \
            and i < 50 * len(pairs):
        u, v = _cycle(pairs, i)
        i += 1
        if u == v or is_landmark(u) or is_landmark(v):
            continue
        with tracer.request():
            t0 = time.perf_counter()
            with tracer.span("core.sketch"):
                index.sketch(u, v)
            t1 = time.perf_counter()
            with tracer.span("core.distance"):
                index.distance(u, v)
            t2 = time.perf_counter()
            with tracer.span("core.query_with_stats"):
                spg, stats = index.query_with_stats(u, v)
            t3 = time.perf_counter()
        sketch = t1 - t0
        probe.sketch_us.append(sketch * 1e6)
        probe.bidirectional_us.append(max(0.0, (t2 - t1) - sketch) * 1e6)
        probe.reverse_recover_us.append(max(0.0, (t3 - t2) - (t2 - t1))
                                        * 1e6)
        probe.edges.append(stats.edges_traversed)
        probe.levels.append(stats.levels_u + stats.levels_v)
        probe.reverse.append(stats.used_reverse)
        probe.recover.append(stats.used_recover)
        probe.spg_edges.append(spg.num_edges)
    return probe


def alloc_peak_kb(index, pairs, samples: int = 5) -> float:
    """Median tracemalloc peak over a few single queries."""
    peaks = []
    tracemalloc.start()
    try:
        for i in range(samples):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            index.query(*_cycle(pairs, i))
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 1024)
    finally:
        tracemalloc.stop()
    return median(peaks)


def count_fallbacks(index, tracer: Tracer) -> List[int]:
    """Wrap the instance's public ``distance`` to count (and span) the
    per-pair calls ``distance_many`` falls back to."""
    calls = [0]
    inner = index.distance

    def distance(u, v):
        calls[0] += 1
        with tracer.span("core.distance"):
            return inner(u, v)

    index.distance = distance
    return calls


# ----------------------------------------------------------------------
# HTTP workloads: shared pieces
# ----------------------------------------------------------------------

def make_requests(graph, params, seed: int):
    """``requests`` bodies of 8 Zipf-drawn pairs each.

    Every ``1 / spg_share``-th body asks for ``spg``, the rest for
    ``distance``: an exact mix, so no run draws more heavy requests
    than another.
    """
    from repro.workloads import sample_pairs_zipf

    count, width = params["requests"], params["pairs_per_request"]
    pairs = sample_pairs_zipf(graph, count * width, seed=seed)
    period = round(1.0 / params["spg_share"])
    return [{"pairs": [list(p) for p in pairs[i * width:(i + 1) * width]],
             "mode": "spg" if i % period == period - 1 else "distance"}
            for i in range(count)]


def _payloads(bodies):
    return lambda i: bodies[i % len(bodies)]


#: Request bodies whose pairs fill the session caches before timing.
WARM_BODIES = 1_000


def warm_requests(bodies, width: int = 256) -> List[Dict[str, Any]]:
    """The pairs of ``bodies`` regrouped into large requests per mode:
    sent once before timing, they leave the worker caches warm."""
    requests = []
    for mode in ("distance", "spg"):
        pairs = [p for body in bodies if body["mode"] == mode
                 for p in body["pairs"]]
        requests += [{"pairs": pairs[i:i + width], "mode": mode}
                     for i in range(0, len(pairs), width)]
    return requests


async def warm_caches(conns, bodies) -> None:
    queue = iter(warm_requests(bodies))

    async def client(conn):
        for payload in queue:
            await conn.post("/query", payload)

    await asyncio.gather(*(client(conn) for conn in conns))


def _start_server(args: List[str], workdir: Path) -> ServerProcess:
    server = ServerProcess(args, workdir, repo_root() / "src")
    try:
        server.wait_ready()
    except BaseException:
        server.stop()
        raise
    return server


def _snapshot(server: ServerProcess):
    return server.get_json("/stats"), parse_metrics(
        server.get_text("/metrics"))


def _count_http_failures(outcome: Outcome, phase: PhaseResult,
                         what: str) -> None:
    outcome.attempted += len(phase.sent)
    for sent in phase.sent:
        if sent.status != 200:
            outcome.fail(f"{what} #{sent.index}: status {sent.status} "
                         f"{str(sent.reply)[:120]}")


def _lag_p99_ms(*phases: PhaseResult) -> float:
    lags = [lag * 1000.0 for phase in phases for lag in phase.lags]
    return percentile(lags, 99) if lags else 0.0


def _meets_limit(phase: PhaseResult) -> bool:
    """Tail within the limit, nothing failed, and no backlog left over."""
    ok = phase.latencies_ms()
    if not ok or len(ok) != len(phase.sent):
        return False
    q = tail_percentile(len(ok))
    if percentile(ok, q) > LATENCY_LIMIT_MS:
        return False
    return phase.scheduled_s is None or \
        phase.wall_s <= phase.scheduled_s + LATENCY_LIMIT_MS / 1000.0


def _audit_replies(outcome: Outcome, sent, graph_at,
                   positions: List[int]) -> None:
    for pos in positions:
        request = sent[pos]
        if request.status != 200:
            continue
        for result in request.reply["results"]:
            graph = graph_at(int(result["epoch"]))
            u, v, value = int(result["u"]), int(result["v"]), \
                result["value"]
            if isinstance(value, dict):
                check_spg(outcome, graph, u, v, value["distance"],
                          value["edges"])
            else:
                check_distance(outcome, graph, u, v, value)


def _check_lag(report: Report, lag_ms: float) -> None:
    if lag_ms > LAG_BOUND_MS:
        report.invalid = (f"load generator fell behind: scheduler lag "
                          f"p99 {lag_ms:.1f} ms > {LAG_BOUND_MS:g} ms")


# ----------------------------------------------------------------------
# http-read
# ----------------------------------------------------------------------

def make_http_read_inputs(params, seed: int):
    from repro.graph.generators import barabasi_albert, star_overlay

    graph = star_overlay(barabasi_albert(params["n"], params["m"],
                                         seed=seed),
                         params["hubs"], params["spokes"], seed=seed + 1)
    return graph, make_requests(graph, params, seed + 2)


def run_http_read(report: Report, params, seed: int, seconds: float,
                  trace: bool, workdir: Path) -> None:
    from repro import build_index

    graph, bodies = make_http_read_inputs(params, seed)
    outcome, tracer = report.outcome, report.tracer
    conns_n = load_connections()
    serve_args = ["--workers", str(conns_n)]
    counter = [0]

    def setup():
        counter[0] += 1
        path = workdir / f"index-{counter[0]}.idx"
        index = build_index(graph, "qbs", num_landmarks=params["landmarks"])
        index.save(path)
        return _start_server(["--index", str(path), *serve_args], workdir)

    server, setup_s = _median_setup(
        setup, lambda s: s.stop(), 1 if trace else SETUP_REPEATS)
    payload = _payloads(bodies)
    nominal, high = params["nominal_rps"], params["high_rps"]
    try:
        async def drive():
            conns = [Connection(server.port) for _ in range(conns_n)]
            try:
                await warm_caches(conns, bodies[:WARM_BODIES])
                before = _snapshot(server)
                if not trace:
                    phases = {
                        "nominal": await open_loop(
                            conns, "/query", payload, nominal,
                            seconds * 0.45, tracer, start_index=WARM_BODIES),
                        "high": await open_loop(
                            conns, "/query", payload, high, seconds * 0.1,
                            tracer, start_index=2 * WARM_BODIES),
                        "capacity": await closed_loop(
                            conns, "/query", payload, seconds * 0.35,
                            tracer, start_index=3 * WARM_BODIES),
                    }
                else:
                    # Back-to-back requests on each connection: the
                    # regime where every reply pays the fixed stall.
                    phases = {
                        "nominal": await open_loop(
                            conns, "/query", payload, nominal,
                            seconds * 0.2, tracer, start_index=WARM_BODIES),
                        "plain": await closed_loop(
                            conns, "/query", payload, seconds * 0.15,
                            Tracer(False), start_index=3 * WARM_BODIES),
                        "traced": await closed_loop(
                            conns, "/query", payload, seconds * 0.15,
                            tracer, start_index=3 * WARM_BODIES),
                    }
                after = _snapshot(server)
                return phases, before, after
            finally:
                for conn in conns:
                    await conn.close()

        phases, before, after = asyncio.run(drive())
    finally:
        server.stop()
    for name, phase in phases.items():
        _count_http_failures(outcome, phase, f"{name} request")
    lag = _lag_p99_ms(*(p for n, p in phases.items() if n != "capacity"))
    _check_lag(report, lag)
    nominal_ms = phases["nominal"].latencies_ms()
    positions = sample_positions(len(phases["nominal"].sent),
                                 params["audit_requests"], seed)
    _audit_replies(outcome, phases["nominal"].sent,
                   lambda epoch: graph, positions)

    if not trace:
        _latency_figures(report, "http", nominal_ms)
        max_rate = _max_rate(report, phases, nominal, high)
        if phases["high"].ok():
            report.name(f"http_p50_ms_at_{high:g}rps",
                        percentile(phases["high"].latencies_ms(), 50), "ms")
        # Back-to-back requests carry the bounded figures: each pays the
        # fixed reply stall, which dominates and holds still. At the
        # nominal rate the connections idle, the stall is absent, and
        # what remains moves with the machine's other load, so those
        # figures are printed but not bounded.
        back_to_back = phases["capacity"].ok()
        by_mode = {"distance": [], "spg": []}
        for sent in back_to_back:
            by_mode[bodies[sent.index % len(bodies)]["mode"]].append(
                sent.latency * 1000.0)
        _, tail = _latency_figures(report, "http_back_to_back",
                                   [s.latency * 1000.0 for s in back_to_back])
        p50, _ = _latency_figures(report, "http_back_to_back_distance",
                                  by_mode["distance"])
        spg_p50, _ = _latency_figures(report, "http_back_to_back_spg",
                                      by_mode["spg"])
        report.end_to_end.update({
            "setup_s": setup_s, "peak_rss_mb": server_peak_rss_mb(after[0]),
            "p50_ms": p50, "tail_ms": tail, "ops_per_s": max_rate,
            "aux_p50_ms": spg_p50,
        })
        return
    wall = sum(phase.wall_s for phase in phases.values())
    report.per_layer.update(serving_layer_metrics(
        before[0], after[0], before[1], after[1], wall))
    plain_ms = phases["plain"].latencies_ms()
    traced_ms = phases["traced"].latencies_ms()
    report.per_layer["obs.trace_overhead_share"] = (
        median(traced_ms) / median(plain_ms) - 1.0)
    # In-process replay of the traced requests: what the service costs
    # without the HTTP front, so the difference is the front's.
    from repro.engine import load_index

    index = load_index(workdir / "index-1.idx")
    replay = [bodies[s.index % len(bodies)] for s in phases["traced"].ok()]
    inproc_ms = replay_in_process(index, replay, bodies[:WARM_BODIES],
                                  tracer, conns_n)
    report.per_layer["serving.http.overhead_p50_ms"] = (
        median(traced_ms) - median(inproc_ms))
    calls = count_fallbacks(index, tracer)
    distance_pairs = [tuple(p) for body in replay
                      if body["mode"] == "distance" for p in body["pairs"]]
    if distance_pairs:
        with tracer.request(), tracer.span("engine.distance_many"):
            index.distance_many(distance_pairs)
        report.per_layer["engine.distance_many.fallback_share"] = (
            calls[0] / len(distance_pairs))
    del index.distance
    spg_pairs = [tuple(p) for body in bodies if body["mode"] == "spg"
                 for p in body["pairs"]]
    report.per_layer.update(
        core_probe(index, spg_pairs, seconds * 0.05, tracer).metrics())
    report.per_layer["core.query.alloc_peak_kb"] = alloc_peak_kb(
        index, spg_pairs)
    lag = max(lag, measure_writes(report, params["writes"], seed + 100,
                                  seconds * 0.35, workdir))
    _check_lag(report, lag)
    report.per_layer["loadgen.lag_p99_ms"] = lag


def replay_in_process(index, replay, warmup, tracer: Tracer,
                      workers: int) -> List[float]:
    """Time ``QueryService.query_many`` per request, serve defaults."""
    from repro.engine.session import QueryOptions
    from repro.serving import QueryService

    latencies = []
    options = QueryOptions(mode="distance", cache_size=4096)
    with QueryService(index, num_workers=workers, options=options,
                      store="shm", max_batch=256,
                      max_delay=0.002) as service:
        for body in warm_requests(warmup):
            service.query_many([tuple(p) for p in body["pairs"]],
                               body["mode"])
        for body in replay:
            pairs = [tuple(p) for p in body["pairs"]]
            start = time.perf_counter()
            with tracer.request(), \
                    tracer.span("serving.service.query_many"):
                service.query_many(pairs, body["mode"])
            latencies.append((time.perf_counter() - start) * 1000.0)
    return latencies


def _max_rate(report: Report, phases, nominal: float, high: float
              ) -> float:
    """Highest rate meeting the limit with no backlog and no failures.

    The closed-loop phase gives the sustained rate; when its tail
    misses the limit, the highest fixed rate that met it stands in.
    """
    capacity = phases["capacity"]
    rate = len(capacity.ok()) / capacity.wall_s if capacity.wall_s else 0.0
    report.name("closed_loop_rps", rate, "1/s")
    if _meets_limit(capacity):
        report.name("max_rate_rps", rate, "1/s")
        return rate
    met = [r for r, name in ((nominal, "nominal"), (high, "high"))
           if _meets_limit(phases[name])]
    chosen = max(met) if met else min(nominal, rate)
    report.name("max_rate_rps", chosen, "1/s")
    report.name("max_rate_limited", 1, "count")
    return chosen


# ----------------------------------------------------------------------
# http-read, traced run: writes beside reads
# ----------------------------------------------------------------------

def make_write_inputs(params, seed: int):
    """A BA graph, read bodies, and update batches of inserts + deletes."""
    from repro.graph.generators import barabasi_albert
    from repro.workloads import generate_update_stream

    graph = barabasi_albert(params["n"], params["m"], seed=seed)
    bodies = make_requests(graph, params, seed + 2)
    # Every batch holds as many inserts (of absent pairs) as deletes (of
    # original edges); the two sets are disjoint, so any interleaving is
    # valid in order.
    half = params["batch_ops"] // 2
    count = params["batches"] * half
    inserts = generate_update_stream(graph, count, insert_frac=1.0,
                                     delete_frac=0.0, seed=seed + 3)
    deletes = generate_update_stream(graph, count, insert_frac=0.0,
                                     delete_frac=1.0, seed=seed + 4)
    batches = [[[op.kind, int(op.u), int(op.v)]
                for op in inserts[i * half:(i + 1) * half]
                + deletes[i * half:(i + 1) * half]]
               for i in range(params["batches"])]
    return graph, bodies, batches


def graph_after(graph, batches) -> Any:
    """The graph once ``batches`` are applied in order."""
    from repro.graph.builder import build_graph

    edges = {(min(a, b), max(a, b)) for a, b in graph.edges()}
    for batch in batches:
        for kind, u, v in batch:
            edge = (min(u, v), max(u, v))
            if kind == "insert":
                edges.add(edge)
            else:
                edges.discard(edge)
    pairs = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    return build_graph((pairs[:, 0], pairs[:, 1]),
                       num_vertices=graph.num_vertices)


def measure_writes(report: Report, params, seed: int, budget: float,
                   workdir: Path) -> float:
    """Reads beside a writer against ``repro serve --dynamic``.

    One connection reads on a fixed schedule; the other sends update
    batches, each ``think_s`` after the last reply. Every read answer is
    audited against the graph at the epoch that served it. Fills the
    dynamic and snapshot layer metrics; returns the reads' scheduler
    lag p99 in ms.
    """
    from repro import build_index

    graph, bodies, batches = make_write_inputs(params, seed)
    outcome, tracer = report.outcome, report.tracer
    path = workdir / "dynamic.idx"
    build_index(graph, "ppl").save(path)
    server = _start_server(["--index", str(path), "--dynamic", "--workers",
                            str(load_connections())], workdir)

    def write_payload(i):
        if i >= len(batches):
            raise RuntimeError(f"the run used up its {len(batches)} "
                               f"update batches")
        return {"ops": batches[i]}

    try:
        async def drive():
            reader, writer = Connection(server.port), Connection(server.port)
            try:
                await closed_loop([reader], "/query", _payloads(bodies),
                                  budget * 0.1, Tracer(False))
                before = _snapshot(server)
                writes = asyncio.ensure_future(closed_loop(
                    [writer], "/update", write_payload, budget * 0.6,
                    tracer, think_s=params["think_s"]))
                reads = await open_loop(
                    [reader], "/query", _payloads(bodies),
                    params["nominal_rps"], budget * 0.6, tracer,
                    start_index=10_000)
                return reads, await writes, before, _snapshot(server)
            finally:
                await reader.close()
                await writer.close()

        reads, writes, before, after = asyncio.run(drive())
    finally:
        server.stop()
    _count_http_failures(outcome, reads, "read under writes")
    _count_http_failures(outcome, writes, "update")

    epochs = sorted(int(s.reply["epoch"]) for s in writes.ok())
    graphs: Dict[int, Any] = {}

    def graph_at(epoch: int):
        if epoch not in graphs:
            applied = sum(1 for e in epochs if e <= epoch)
            graphs[epoch] = graph_after(graph, batches[:applied])
        return graphs[epoch]

    later = [i for i, s in enumerate(reads.sent) if s.status == 200
             and any(r["epoch"] > 0 for r in s.reply["results"])]
    positions = sorted(set(
        [later[i] for i in sample_positions(len(later),
                                            params["audit_requests"], seed)]
        + sample_positions(len(reads.sent), 2, seed + 1)))
    _audit_replies(outcome, reads.sent, graph_at, positions)
    report.name("writes.update_batches", len(writes.sent), "count")
    report.name("writes.update_p50_ms",
                percentile(writes.latencies_ms(), 50), "ms")
    report.name("writes.read_p50_ms", percentile(reads.latencies_ms(), 50),
                "ms")

    def mdelta(key: str) -> float:
        return after[1].get(key, 0.0) - before[1].get(key, 0.0)

    queries = sum(value - before[1].get(key, 0.0)
                  for key, value in after[1].items()
                  if key.startswith("session_queries_total"))
    report.per_layer["dynamic.rebuilds"] = mdelta("dynamic_rebuilds_total")
    report.per_layer["dynamic.fallback_query_share"] = (
        mdelta("dynamic_fallback_queries_total") / queries
        if queries else 0.0)
    apply_ms, publish_ms = time_apply_and_publish(
        path, batches, budget * 0.3, tracer)
    report.per_layer["dynamic.apply_batch_ms"] = median(apply_ms)
    report.per_layer["serving.snapshot.publish_ms"] = median(publish_ms)
    return _lag_p99_ms(reads)


def time_apply_and_publish(path: Path, batches, budget: float,
                           tracer: Tracer) -> Tuple[List[float],
                                                    List[float]]:
    """``apply_updates(refresh=False)`` then ``refresh()``, per batch."""
    from repro.dynamic import DynamicIndex
    from repro.engine import load_index
    from repro.engine.session import QueryOptions
    from repro.serving import QueryService

    index = DynamicIndex.from_static(load_index(path))
    apply_ms, publish_ms = [], []
    options = QueryOptions(mode="distance", cache_size=4096)
    with QueryService(index, num_workers=load_connections(),
                      options=options, store="shm") as service:
        stop = time.perf_counter() + budget
        for i, batch in enumerate(batches):
            if i >= 3 and time.perf_counter() > stop:
                break
            ops = [tuple(op) for op in batch]
            with tracer.request():
                t0 = time.perf_counter()
                with tracer.span("dynamic.apply_batch"):
                    service.apply_updates(ops, refresh=False)
                t1 = time.perf_counter()
                with tracer.span("serving.snapshot.refresh"):
                    service.refresh()
                t2 = time.perf_counter()
            apply_ms.append((t1 - t0) * 1000.0)
            publish_ms.append((t2 - t1) * 1000.0)
    return apply_ms, publish_ms


# ----------------------------------------------------------------------
# scaleout-distance
# ----------------------------------------------------------------------

def make_scaleout_inputs(params, seed: int):
    from repro.graph.generators import barabasi_albert
    from repro.workloads import sample_pairs, sample_pairs_zipf

    store_graph = barabasi_albert(params["store_n"], params["m"], seed=seed)
    store_pairs = sample_pairs_zipf(store_graph, params["pairs"],
                                    seed=seed + 1)
    shard_graph = communities_graph(params, seed + 2)
    shard_pairs = sample_pairs(shard_graph, params["pairs"], seed=seed + 3)
    return store_graph, store_pairs, shard_graph, shard_pairs


def communities_graph(params, seed: int):
    """``stochastic_block`` communities joined by an exact edge count.

    Each pair of communities gets ``p_out * block**2`` edges, the
    model's expected number, between uniformly drawn endpoints. A drawn
    count would move the boundary, and with it the cost of every
    cross-shard answer, by several percent from seed to seed.
    """
    from repro.graph.builder import build_graph
    from repro.graph.generators import stochastic_block

    block, blocks = params["block"], params["blocks"]
    inner = stochastic_block([block] * blocks, params["p_in"], 0.0,
                             seed=seed)
    rng = np.random.default_rng(seed + 1)
    per_pair = max(1, round(params["p_out"] * block * block))
    us, vs = [inner.edge_array()[:, 0]], [inner.edge_array()[:, 1]]
    for a in range(blocks):
        for b in range(a + 1, blocks):
            us.append(a * block + rng.integers(block, size=per_pair))
            vs.append(b * block + rng.integers(block, size=per_pair))
    return build_graph((np.concatenate(us).astype(np.int64),
                        np.concatenate(vs).astype(np.int64)),
                       num_vertices=block * blocks)


def run_scaleout_distance(report: Report, params, seed: int,
                          seconds: float, trace: bool, workdir: Path
                          ) -> None:
    from repro import build_index
    from repro.shard import ShardedIndex
    from repro.store import open_store_index, pack_index_store

    store_graph, store_pairs, shard_graph, shard_pairs = \
        make_scaleout_inputs(params, seed)
    outcome, tracer = report.outcome, report.tracer
    counter = [0]

    def setup():
        counter[0] += 1
        path = workdir / f"labels-{counter[0]}.store"
        pack_index_store(build_index(store_graph, "ppl"), path)
        store_index = open_store_index(path, io="pread")
        sharded = ShardedIndex.from_partition(
            shard_graph, community_partition(shard_graph, params))
        return store_index, sharded

    (store_index, sharded), setup_s = _median_setup(
        setup, lambda built: built[0].close(),
        1 if trace else SETUP_REPEATS)

    def chunks(index, pairs, size: int, budget: float, name: str,
               audit: List[int], traced: bool = True):
        spans = tracer if traced else Tracer(False)
        latencies, kept, done, c = [], {}, 0, 0
        stop = time.perf_counter() + budget
        while time.perf_counter() < stop or c < 2:
            base = (c * size) % len(pairs)
            batch = pairs[base:base + size]
            outcome.attempted += len(batch)
            start = time.perf_counter()
            try:
                with spans.request(), spans.span(name):
                    values = index.distance_many(batch)
            except Exception as exc:      # noqa: BLE001 - counted
                outcome.fail(f"{name} raised {exc!r}", len(batch))
                c += 1
                continue
            latencies.append(time.perf_counter() - start)
            done += len(batch)
            for offset, value in enumerate(values):
                if base + offset in audit:
                    kept[base + offset] = value
            c += 1
        return latencies, done, kept

    store_chunk, shard_chunk = params["store_chunk"], params["shard_chunk"]
    store_audit = sample_positions(2 * store_chunk,
                                   params["distance_checks"], seed)
    shard_audit = sample_positions(2 * shard_chunk,
                                   params["distance_checks"], seed + 1)
    with store_index:
        for i in range(4):                   # warm-up, not timed
            store_index.distance_many(store_pairs[:store_chunk])
        if not trace:
            store_lat, store_done, store_kept = chunks(
                store_index, store_pairs, store_chunk, seconds * 0.5,
                "store.distance_many", store_audit)
            shard_lat, shard_done, shard_kept = chunks(
                sharded, shard_pairs, shard_chunk, seconds * 0.5,
                "shard.distance_many", shard_audit)
            # The shard phase carries p50/tail/ops: its chunks are alike
            # from seed to seed. The store chunks' p95 is not: whether a
            # seed's Zipf hot set fits the page cache splits it between
            # about 9 and 20 ms, so only the store p50 is bounded.
            store_p50, _ = _latency_figures(
                report, "store_chunk", [t * 1000.0 for t in store_lat])
            p50, tail = _latency_figures(
                report, "shard_chunk", [t * 1000.0 for t in shard_lat])
            shard_rate = shard_done / sum(shard_lat)
            report.name("store_pairs_per_s", store_done / sum(store_lat),
                        "1/s")
            report.name("shard_pairs_per_s", shard_rate, "1/s")
            report.end_to_end.update({
                "setup_s": setup_s, "peak_rss_mb": self_peak_rss_mb(),
                "p50_ms": p50, "tail_ms": tail, "ops_per_s": shard_rate,
                "aux_p50_ms": store_p50,
            })
        else:
            plain, _, _ = chunks(store_index, store_pairs, store_chunk,
                                 seconds * 0.1, "store.distance_many", [],
                                 traced=False)
            before = store_index.store_stats()
            traced, store_done, store_kept = chunks(
                store_index, store_pairs, store_chunk, seconds * 0.2,
                "store.distance_many", store_audit)
            after = store_index.store_stats()
            report.per_layer["obs.trace_overhead_share"] = (
                mean(traced) / mean(plain) - 1.0)
            report.per_layer.update(store_metrics(before, after,
                                                  store_done))
            _, _, shard_kept = chunks(sharded, shard_pairs, shard_chunk,
                                      seconds * 0.3, "shard.distance_many",
                                      shard_audit)
            report.per_layer.update(shard_probe(
                sharded, shard_pairs, seconds * 0.3, tracer))
            report.per_layer["shard.partitioner.boundary_share"] = \
                partitioner_boundary_share(shard_graph)
        for i, value in store_kept.items():
            check_distance(outcome, store_graph, *store_pairs[i], value)
        for i in sample_positions(len(store_pairs), params["spg_checks"],
                                  seed + 2):
            spg = store_index.query(*store_pairs[i])
            check_spg(outcome, store_graph, *store_pairs[i],
                      spg.distance, spg.edges)
    for i, value in shard_kept.items():
        check_distance(outcome, shard_graph, *shard_pairs[i], value)
    for i in sample_positions(len(shard_pairs), params["spg_checks"],
                              seed + 3):
        spg = sharded.query(*shard_pairs[i])
        check_spg(outcome, shard_graph, *shard_pairs[i], spg.distance,
                  spg.edges)
    report.name("store_cold_mb", store_index.store_stats()["cold_bytes"]
                / 2**20, "MB")


def store_metrics(before: Dict[str, Any], after: Dict[str, Any],
                  pairs: int) -> Dict[str, float]:
    def delta(key: str) -> float:
        return float(after[key]) - float(before[key])

    hits = delta("hits") + delta("pinned_hits")
    touches = hits + delta("misses")
    return {
        "store.cache.hit_rate": hits / touches if touches else 0.0,
        "store.cache.evictions": delta("evictions"),
        "store.bytes_read_per_pair":
            delta("misses") * after["block_bytes"] / pairs if pairs else 0.0,
    }


def community_partition(graph, params):
    """The generator's own four communities as the shard partition.

    This is the operator-supplied path (``build --partition-file``).
    The library's BFS partitioner misses these communities for some
    seeds, and the overlay then grows until one build takes close to a
    minute; ``shard.partitioner.boundary_share`` tracks that instead.
    """
    from repro.shard import Partition

    assignment = np.arange(graph.num_vertices) // params["block"]
    return Partition(assignment, params["blocks"], method="communities")


def partitioner_boundary_share(graph) -> float:
    """Boundary vertices per vertex of ``partition_graph``'s 4 shards."""
    from repro.shard import partition_graph

    report = partition_graph(graph, 4).quality_report(graph)
    return report["boundary_vertices"] / graph.num_vertices


def shard_probe(sharded, pairs, budget: float, tracer: Tracer
                ) -> Dict[str, float]:
    """Per-pair ``distance`` times, split by whether a pair crosses shards."""
    assignment = sharded.partition.assignment
    cross, local = [], []
    stop = time.perf_counter() + budget
    for i, (u, v) in enumerate(pairs):
        if i >= 8 and time.perf_counter() > stop:
            break
        start = time.perf_counter()
        with tracer.request(), tracer.span("shard.distance"):
            sharded.distance(u, v)
        elapsed = (time.perf_counter() - start) * 1000.0
        (cross if assignment[u] != assignment[v] else local).append(elapsed)
    total = len(cross) + len(local)
    return {
        "shard.cross_share": len(cross) / total if total else 0.0,
        "shard.cross.p50_ms": percentile(cross, 50) if cross else 0.0,
        "shard.local.p50_ms": percentile(local, 50) if local else 0.0,
    }


INPUT_MAKERS = {
    "paper-queries": make_paper_inputs,
    "http-read": lambda params, seed: (
        *make_http_read_inputs(params, seed),
        *make_write_inputs(params["writes"], seed + 100)),
    "scaleout-distance": make_scaleout_inputs,
}


def input_fingerprint(name: str, seed: int, size: str = "full") -> str:
    """Digest of a workload's generated inputs (for the seed tests)."""
    params = WORKLOADS[name]["sizes"][size]
    return fingerprint(*INPUT_MAKERS[name](params, seed))
