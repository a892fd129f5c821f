"""The four benchmark workloads.

Each workload function takes ``(seed, seconds, trace)`` and returns a
:class:`Outcome`.  With ``trace=False`` it measures the end-to-end
metrics with tracing off (``Observability.disabled()`` through every
public ``obs=`` parameter); with ``trace=True`` it runs the same
operations once untraced and once traced, reports the per-layer metrics
and checks that they reconcile.  See ``README.md`` in this directory for
the rationale of each workload and metric.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from perfbench import inputs
from perfbench.loadgen import (
    PhaseResult,
    pct,
    run_open_loop,
    run_phases,
    saturated_rate,
)
from perfbench.probes import (
    CallLog,
    PeakRss,
    TimedEngine,
    TimedMutable,
    match_requests,
    time_scatter,
)
from repro import BuildConfig, WKNNGBuilder
from repro.apps.search import GraphSearchIndex, SearchConfig
from repro.core.mutable import IndexSnapshot, MutableConfig, MutableIndex
from repro.obs import Observability
from repro.serve.cluster import ClusterClient, ClusterConfig
from repro.serve.degrade import ShedPolicy
from repro.serve.server import (
    AdmissionPolicy,
    CachePolicy,
    KNNServer,
    ServeConfig,
)

# -- sizes ----------------------------------------------------------------------

BUILD_N, BUILD_DIM, BUILD_K = 8000, 128, 16
#: points of the warm-up build that precedes the timed builds
WARMUP_N = 1024
GAUSS_N, GAUSS_DIM, GRAPH_K = 3000, 64, 16
#: neighbours asked per read, and the beam width served at
READ_K, EF = 10, 32
SETUP_REPEATS = 3
SETUP_PROBES = 3

#: fixed read rates (requests/s) of the timed phases, below capacity
SERVE_RATE, CHURN_RATE, CLUSTER_RATE = 1000.0, 500.0, 300.0
#: requests per timed read phase; each phase runs on a fresh client, and
#: 1000 requests leave ten beyond the p99
PHASE_REQUESTS = 1000
#: capacity: bursts per run, each on a fresh client, and requests per burst
BURSTS, BURST_REQUESTS = 5, 2000

#: churn trace: ops (insert, insert, delete, ...) and rows per insert; the
#: tombstone fraction crosses the compaction threshold once, at op 29
CHURN_OPS, CHURN_BATCH = 45, 32
#: churn and cluster read for this many times ``--seconds``: churn so the
#: compaction covers about a fifth of its reads, cluster so its latency at
#: the lower rate is still a median over six phases
LONG_SPAN = 2

#: recall floors (correctness: below these the program is broken)
RECALL_FLOOR = {"build-sift128": 0.90, "serve-gauss64": 0.90,
                "churn-gauss64": 0.85, "cluster-gauss64": 0.90}


# -- results --------------------------------------------------------------------


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def disabled() -> Observability:
    return Observability.disabled()


def build_config(k: int, seed: int) -> BuildConfig:
    return BuildConfig(k=k, strategy="auto", seed=seed, n_jobs=1)


def serve_config(cache: bool) -> ServeConfig:
    return ServeConfig(
        admission=AdmissionPolicy(max_batch=64, max_wait_ms=2.0,
                                  queue_limit=8192, n_workers=1),
        cache=CachePolicy(size=2048 if cache else 0),
        shed=ShedPolicy(enabled=False),
        default_k=READ_K,
    )


def cpu_seconds() -> float:
    return time.process_time()


# -- shared checks ----------------------------------------------------------------


def check_graph(out: Outcome, x: np.ndarray, ids: np.ndarray,
                dists: np.ndarray) -> None:
    """k distinct non-self ids per row; distances sorted and exact."""
    n, k = ids.shape
    out.check(bool((ids >= 0).all() and (ids < n).all()),
              "graph: ids missing or out of range")
    out.check(not (ids == np.arange(n)[:, None]).any(), "graph: self loops")
    srt = np.sort(ids, axis=1)
    out.check(not (srt[:, 1:] == srt[:, :-1]).any(), "graph: repeated ids in a row")
    out.check(bool((np.diff(dists, axis=1) >= 0).all()),
              "graph: distances not nondecreasing")
    check_distances(out, "graph", x, x[np.clip(ids, 0, n - 1)], dists)


def check_distances(out: Outcome, what: str, queries: np.ndarray,
                    points: np.ndarray, dists: np.ndarray) -> None:
    """Reported squared distances equal exact float64 recomputation, up to
    float32 rounding of the norms they are formed from."""
    exact = inputs.exact_sq_dists(queries, points)
    scale = (np.einsum("md,md->m", queries.astype(np.float64), queries)[:, None]
             + np.einsum("mkd,mkd->mk", points.astype(np.float64), points))
    bad = np.abs(dists.astype(np.float64) - exact) > 1e-5 * scale + 1e-4
    out.check(not bad.any(),
              f"{what}: {int(bad.sum())} reported distances differ from exact")


def check_answers(out: Outcome, phase: PhaseResult, queries: np.ndarray,
                  vectors: np.ndarray) -> None:
    """Every future resolved exactly once; answers are well-formed with
    exact distances (``vectors`` maps answer ids to their points)."""
    out.check(bool((phase.resolutions == 1).all()),
              f"futures: {int((phase.resolutions != 1).sum())} did not resolve "
              f"exactly once")
    ok = [i for i, e in enumerate(phase.errors) if e is None]
    if not ok:
        return
    ids = np.stack([phase.results[i].ids for i in ok]).astype(np.int64)
    dists = np.stack([phase.results[i].dists for i in ok])
    out.check(bool((ids >= 0).all()), "answers: unfilled slots")
    srt = np.sort(ids, axis=1)
    out.check(not (srt[:, 1:] == srt[:, :-1]).any(), "answers: repeated ids")
    out.check(bool((np.diff(dists, axis=1) >= 0).all()),
              "answers: distances not nondecreasing")
    check_distances(out, "answers", queries[ok],
                    vectors[np.clip(ids, 0, vectors.shape[0] - 1)], dists)


def answer_ids(phase: PhaseResult, k: int) -> np.ndarray:
    rows = [r.ids if e is None else np.full(k, -1)
            for r, e in zip(phase.results, phase.errors)]
    return np.stack(rows).astype(np.int64)


def count_phase(out: Outcome, phase: PhaseResult) -> None:
    out.attempted += phase.attempted
    out.failed += phase.failed


# -- build spans and counters ----------------------------------------------------


def build_layers(obs: Observability, report: Any, wall: float) -> dict[str, float]:
    """Per-layer figures of one traced build, from its spans and counters."""
    root = max((r for r in obs.trace.roots() if r.name == "build"),
               key=lambda r: r.start)
    phases = report.phase_seconds
    counters = report.counters
    refine = obs.metrics.section("refine/")
    return {
        "forest.busy_s": phases.get("forest", 0.0),
        "forest.leaves": report.leaf_stats.get("n_leaves", 0.0),
        "leaf_pairs.busy_s": phases.get("leaf_pairs", 0.0),
        "kernel.distance_evals": counters.get("distance_evals", 0),
        "kernel.insert_ratio": counters.get("candidates_inserted", 0)
        / max(1, counters.get("candidates_offered", 0)),
        "refine.busy_s": phases.get("refine", 0.0),
        "refine.rounds": len(report.refine_insertions),
        "refine.inserted": sum(report.refine_insertions),
        "refine.insert_ratio": refine.get("insertions", 0)
        / max(1, refine.get("candidate_pairs", 0)),
        "finalize.busy_s": phases.get("finalize", 0.0),
        "_phase_sum_s": sum(phases.values()),
        "_root_s": root.seconds,
        "_wall_s": wall,
    }


def timed_build(x: np.ndarray, cfg: BuildConfig, traced: bool):
    """Build the graph; returns (graph, forest, seconds, layers), where
    ``layers`` holds the build's per-layer figures when ``traced``."""
    obs = Observability() if traced else disabled()
    t0 = time.perf_counter()
    builder = WKNNGBuilder(cfg, obs=obs)
    graph = builder.build(x)
    wall = time.perf_counter() - t0
    layers = [build_layers(obs, graph.report, wall)] if traced else []
    return graph, builder.last_forest, wall, layers


def put_build_layers(out: Outcome, layers: list[dict[str, float]]) -> None:
    """Median of each build figure; check that phases add up."""
    for name in layers[0]:
        if not name.startswith("_"):
            unit = "s" if name.endswith("_s") else (
                "ratio" if name.endswith("ratio") else "count")
            out.put(name, statistics.median(d[name] for d in layers), unit)
    share = statistics.median(d["_phase_sum_s"] / d["_root_s"] for d in layers)
    cover = statistics.median(d["_root_s"] / d["_wall_s"] for d in layers)
    out.put("trace.build_phase_share", share, "ratio")
    out.check(0.95 <= share <= 1.0 + 1e-9,
              f"reconcile: build phases sum to {share:.3f} of the build span")
    out.check(0.90 <= cover <= 1.0 + 1e-9,
              f"reconcile: build span covers {cover:.3f} of the build call")


# -- build-sift128 ---------------------------------------------------------------------


def setup_probe_seconds(seed: int) -> float:
    """One fresh interpreter: import the program and run the warm-up build."""
    script = Path(__file__).with_name("setup_probe.py")
    proc = subprocess.run(
        [sys.executable, str(script), "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def warmup_build(seed: int) -> float:
    """The set-up that precedes the timed builds: a small cold build."""
    x = inputs.sift_like(WARMUP_N, BUILD_DIM, seed + 1)
    t0 = time.perf_counter()
    WKNNGBuilder(build_config(BUILD_K, seed), obs=disabled()).build(x)
    return time.perf_counter() - t0


def run_build(seed: int, seconds: int, trace: bool) -> Outcome:
    out = Outcome()
    x = inputs.sift_like(BUILD_N, BUILD_DIM, seed)
    truth = inputs.exact_knn(x, x, BUILD_K, exclude_self=True)
    cfg = build_config(BUILD_K, seed)
    n_builds = 3 if trace else max(3, seconds // 2)

    if not trace:
        setups = [setup_probe_seconds(seed) for _ in range(SETUP_PROBES)]
    warmup_build(seed)
    rss = PeakRss()
    rss.reset()

    walls: list[float] = []
    graphs = []
    layers: list[dict[str, float]] = []
    traced_walls: list[float] = []
    for _ in range(n_builds):
        graph, _, wall, _ = timed_build(x, cfg, traced=False)
        walls.append(wall)
        graphs.append(graph)
        if trace:
            graph, _, wall, lay = timed_build(x, cfg, traced=True)
            traced_walls.append(wall)
            layers.extend(lay)
            graphs.append(graph)
        out.attempted += 1
    peak = rss.peak_mb()

    first = graphs[0]
    check_graph(out, x, first.ids, first.dists)
    out.check(all(np.array_equal(g.ids, first.ids) for g in graphs[1:]),
              "build: repeated builds of the same input differ")
    recall = inputs.recall_at_k(first.ids, truth)
    out.check(recall >= RECALL_FLOOR["build-sift128"], f"build: recall {recall:.4f}")

    if trace:
        put_build_layers(out, layers)
        out.put("trace.overhead_ratio",
                statistics.median(traced_walls) / statistics.median(walls), "ratio")
        return out

    med = statistics.median(walls)
    out.put("setup_s", statistics.median(setups), "s")
    out.put("build_points_per_s", BUILD_N / med, "1/s")
    out.put("recall", recall, "ratio")
    # the workload's request is one build call (closed loop, due = start)
    out.put("latency_p50_ms", med * 1000.0, "ms")
    out.put("latency_p99_ms", max(walls) * 1000.0, "ms")
    out.put("capacity_qps", 1.0 / med, "1/s")
    out.put("write_p50_ms", med * 1000.0, "ms")
    out.put("write_p95_ms", pct(walls, 95) * 1000.0, "ms")
    out.put("peak_rss_mb", peak, "MB")
    out.put("served_ratio", 1.0 - out.failed / out.attempted, "ratio")
    return out


# -- served workloads: common pieces -------------------------------------------------


@dataclass
class Stack:
    """A built engine, the client currently serving it, and what set-up
    measured.

    ``open_client`` starts a fresh client (server or cluster) over the
    same engine - each read phase and capacity burst gets one, so each
    starts with a cold result cache.  ``batch_log`` records each micro-batch's engine
    call (or cluster scatter) and ``engine_log`` each engine search; both
    stay empty on untraced stacks.
    """

    open_client: Callable[[], Any]
    client: Any = None
    setup_s: float = 0.0
    build_s: list[float] = field(default_factory=list)
    layers: list[dict[str, float]] = field(default_factory=list)
    batch_log: CallLog = field(default_factory=CallLog)
    engine_log: CallLog = field(default_factory=CallLog)
    mutable: Any = None


def repeat_setup(make: Callable[[], Stack]) -> tuple[Stack, list[float], list[float]]:
    """Set up ``SETUP_REPEATS`` times, closing each set-up's client once
    timed; returns the last stack (its engine serves the timed phase)."""
    setups: list[float] = []
    builds: list[float] = []
    for _ in range(SETUP_REPEATS):
        stack = make()
        stack.client.close()
        setups.append(stack.setup_s)
        builds.extend(stack.build_s)
    return stack, setups, builds


def settle() -> None:
    """Collect, then move everything alive into the collector's permanent
    generation, so the timed phase does not rescan the benchmark's inputs
    and set-up objects on every full collection."""
    gc.collect()
    gc.freeze()


def submit_fn(client: Any) -> Callable[[np.ndarray], Any]:
    return lambda q: client.submit(q, READ_K)


def read_parts(rate: float, seconds: int) -> tuple[int, int]:
    """(requests, phases) of a timed read phase: ``rate * seconds``
    requests in phases of at least ``PHASE_REQUESTS``, at most ten."""
    count = int(rate * seconds)
    return count, max(1, min(10, count // PHASE_REQUESTS))


def capacity(out: Outcome, open_client: Callable[[], Any], queries: np.ndarray,
             vectors: np.ndarray) -> float:
    """Median saturated rate over ``BURSTS`` bursts on fresh clients; the
    burst requests count as attempts and their answers are checked."""
    bursts = run_phases(open_client, queries, float("inf"), BURSTS)
    for burst, chunk in zip(bursts, np.array_split(queries, BURSTS)):
        count_phase(out, burst)
        check_answers(out, burst, chunk, vectors)
    return statistics.median(saturated_rate(b) for b in bursts)


def put_served_e2e(out: Outcome, setups: list[float], builds: list[float],
                   n_points: int, recall: float, phases: list[PhaseResult],
                   capacity_qps: float, writes_ms: list[float], peak: float,
                   pooled: bool = False) -> None:
    """End-to-end metrics of a served workload.

    Latency percentiles are medians over the phases of each phase's
    percentile, or with ``pooled`` percentiles over all reads together -
    for churn, whose compaction falls on a fixed share of the reads and
    belongs in the figure rather than in one outvoted phase.
    """
    out.put("setup_s", statistics.median(setups), "s")
    out.put("build_points_per_s", n_points / statistics.median(builds), "1/s")
    out.put("recall", recall, "ratio")
    for q, name in ((50, "latency_p50_ms"), (99, "latency_p99_ms")):
        if pooled:
            value = pct(np.concatenate([p.latencies_ms() for p in phases]), q)
        else:
            value = statistics.median(pct(p.latencies_ms(), q) for p in phases)
        out.put(name, value, "ms")
    out.put("capacity_qps", capacity_qps, "1/s")
    out.put("write_p50_ms", pct(writes_ms, 50), "ms")
    out.put("write_p95_ms", pct(writes_ms, 95), "ms")
    out.put("peak_rss_mb", peak, "MB")
    out.put("served_ratio", 1.0 - out.failed / max(1, out.attempted), "ratio")


def put_read_layers(out: Outcome, phase: PhaseResult, queries: np.ndarray,
                    stack: Stack) -> None:
    """Engine, queue and cache figures of a traced read phase, and the
    check that queue wait plus engine (or scatter) time accounts for the
    server-side latency of each request."""
    batches = stack.batch_log.calls
    engine = stack.engine_log.calls
    busy = [(c.t1 - c.t0) * 1000.0 for c in engine]
    rows = sum(c.rows for c in engine)
    out.put("engine.busy_ms_p50", pct(busy, 50), "ms")
    out.put("engine.busy_ms_p99", pct(busy, 99), "ms")
    out.put("engine.batch_size_mean", rows / max(1, len(engine)), "count")
    for key in ("distance_evals", "expansions", "rerank_evals"):
        total = sum(c.stats.get(key, 0) for c in engine)
        out.put(f"engine.{key}_per_query", total / max(1, rows), "count")

    served = phase.ok
    hit = np.array([r is not None and r.from_cache for r in phase.results])
    match = match_requests(batches, queries, phase.sent, served & ~hit)
    want = np.flatnonzero(served & ~hit)
    got = want[match[want] >= 0]
    out.check(got.size >= 0.95 * want.size,
              f"reconcile: only {got.size}/{want.size} requests matched to "
              f"the batch that served them")
    start = np.array([batches[c].t0 for c in match[got]])
    end = np.array([batches[c].t1 for c in match[got]])
    wait = (start - phase.sent[got]) * 1000.0
    latency = phase.done[got] - phase.sent[got]
    share = float(np.median((end - phase.sent[got]) / latency)) if got.size else 0.0
    out.put("serve.queue_wait_ms_p50", pct(wait, 50), "ms")
    out.put("serve.queue_wait_ms_p99", pct(wait, 99), "ms")
    out.put("trace.read_latency_share", share, "ratio")
    out.check(0.75 <= share <= 1.0 + 1e-9,
              f"reconcile: queue wait + engine time is {share:.3f} of latency")

    stats = stack.client.stats()
    out.put("serve.batches", stats["batches"], "count")
    out.put("serve.rejected", stats["rejected"], "count")
    out.put("serve.timeouts", stats["timeouts"], "count")
    out.put("cache.hit_ratio", stats["cache_hits"] / max(1, stats["submitted"]),
            "ratio")
    out.put("loadgen.lag_ms_p99", pct(phase.lag_ms(), 99), "ms")


def put_cluster_layers(out: Outcome, stack: Stack) -> None:
    """Scatter, per-shard and fan-out overhead figures (one scatter runs
    at a time, so a shard call belongs to the scatter whose window holds
    its start)."""
    shards = stack.engine_log.calls
    scatter_ms, overhead, skew = [], [], []
    for sc in stack.batch_log.calls:
        inside = [(c.t1 - c.t0) * 1000.0 for c in shards if sc.t0 <= c.t0 <= sc.t1]
        if not inside:
            continue
        span = (sc.t1 - sc.t0) * 1000.0
        scatter_ms.append(span)
        overhead.append(span - max(inside))
        skew.append(max(inside) - min(inside))
    shard_ms = [(c.t1 - c.t0) * 1000.0 for c in shards]
    out.put("cluster.scatter_ms_p50", pct(scatter_ms, 50), "ms")
    out.put("cluster.shard_ms_p50", pct(shard_ms, 50), "ms")
    out.put("cluster.overhead_ms_p50", pct(overhead, 50), "ms")
    out.put("cluster.shard_skew_ms_p50", pct(skew, 50), "ms")


#: per-layer metrics; layers a workload does not run read as 0
PER_LAYER = (
    ("forest.busy_s", "s"), ("forest.leaves", "count"),
    ("leaf_pairs.busy_s", "s"), ("kernel.distance_evals", "count"),
    ("kernel.insert_ratio", "ratio"), ("refine.busy_s", "s"),
    ("refine.rounds", "count"), ("refine.inserted", "count"),
    ("refine.insert_ratio", "ratio"), ("finalize.busy_s", "s"),
    ("engine.busy_ms_p50", "ms"), ("engine.busy_ms_p99", "ms"),
    ("engine.batch_size_mean", "count"),
    ("engine.distance_evals_per_query", "count"),
    ("engine.expansions_per_query", "count"),
    ("engine.rerank_evals_per_query", "count"),
    ("serve.queue_wait_ms_p50", "ms"), ("serve.queue_wait_ms_p99", "ms"),
    ("serve.batches", "count"), ("serve.rejected", "count"),
    ("serve.timeouts", "count"), ("cache.hit_ratio", "ratio"),
    ("cluster.scatter_ms_p50", "ms"), ("cluster.shard_ms_p50", "ms"),
    ("cluster.overhead_ms_p50", "ms"), ("cluster.shard_skew_ms_p50", "ms"),
    ("mutable.insert_ms_p50", "ms"), ("mutable.insert_ms_p95", "ms"),
    ("mutable.delete_ms_p50", "ms"), ("mutable.compact_s", "s"),
    ("mutable.compactions", "count"), ("mutable.flips", "count"),
    ("loadgen.lag_ms_p99", "ms"), ("trace.overhead_ratio", "ratio"),
    ("trace.build_phase_share", "ratio"), ("trace.read_latency_share", "ratio"),
)


def fill_absent_layers(out: Outcome) -> None:
    for name, unit in PER_LAYER:
        if name not in out.metrics:
            out.put(name, 0.0, unit)


def run_reads(out: Outcome, queries: np.ndarray, vectors: np.ndarray,
              rate: float, parts: int, make: Callable[[bool], Stack],
              burst: np.ndarray, n_points: int, workload: str) -> Outcome:
    """The untraced run of a static read workload (serve or cluster)."""
    truth = inputs.exact_knn(vectors, queries, READ_K)
    rss = PeakRss()
    rss.reset()
    stack, setups, builds = repeat_setup(lambda: make(False))
    settle()
    phases = run_phases(stack.open_client, queries, rate, parts)
    cap = capacity(out, stack.open_client, burst, vectors)
    peak = rss.peak_mb()
    found = []
    for phase, chunk in zip(phases, np.array_split(queries, parts)):
        count_phase(out, phase)
        check_answers(out, phase, chunk, vectors)
        found.append(answer_ids(phase, READ_K))
    recall = inputs.recall_at_k(np.concatenate(found), truth)
    out.check(recall >= RECALL_FLOOR[workload], f"{workload}: recall {recall:.4f}")
    put_served_e2e(out, setups, builds, n_points, recall, phases, cap,
                   [b * 1000.0 for b in builds], peak)
    return out


def trace_reads(out: Outcome, queries: np.ndarray, vectors: np.ndarray,
                rate: float, make: Callable[[bool], Stack]) -> Outcome:
    """The traced run of a static read workload: the same read phase on
    an untraced and on a traced stack; per-layer figures come from the
    traced one, and the CPU-time ratio of the two is the overhead."""
    cpu: dict[bool, float] = {}
    for traced in (False, True):
        stack = make(traced)
        settle()
        try:
            c0 = cpu_seconds()
            phase = run_open_loop(submit_fn(stack.client), queries, rate)
            cpu[traced] = cpu_seconds() - c0
            if traced:
                put_read_layers(out, phase, queries, stack)
                if isinstance(stack.client, ClusterClient):
                    put_cluster_layers(out, stack)
        finally:
            stack.client.close()
        count_phase(out, phase)
        check_answers(out, phase, queries, vectors)
    put_build_layers(out, stack.layers)
    out.put("trace.overhead_ratio", cpu[True] / cpu[False], "ratio")
    return out


# -- serve-gauss64 -------------------------------------------------------------------


def make_server(x: np.ndarray, seed: int, traced: bool) -> Stack:
    obs = Observability() if traced else disabled()
    t0 = time.perf_counter()
    graph, forest, build_s, layers = timed_build(
        x, build_config(GRAPH_K, seed), traced)
    index = GraphSearchIndex.from_parts(x, graph, forest, SearchConfig(ef=EF),
                                        obs=obs)
    log = CallLog()
    engine = TimedEngine(index, log) if traced else index
    stack = Stack(lambda: KNNServer(engine, serve_config(cache=True),
                                    obs=obs).start(),
                  build_s=[build_s], layers=layers, batch_log=log, engine_log=log)
    stack.client = stack.open_client()
    stack.setup_s = time.perf_counter() - t0
    return stack


def run_serve(seed: int, seconds: int, trace: bool) -> Outcome:
    out = Outcome()
    x = inputs.gauss_mixture(GAUSS_N, GAUSS_DIM, seed)
    count, parts = read_parts(SERVE_RATE, seconds)
    queries = inputs.skewed_reads(x, count, seed, "reads")
    make = lambda traced: make_server(x, seed, traced)  # noqa: E731
    if trace:
        return trace_reads(out, queries, x, SERVE_RATE, make)
    burst = inputs.skewed_reads(x, BURSTS * BURST_REQUESTS, seed, "bursts")
    return run_reads(out, queries, x, SERVE_RATE, parts, make, burst,
                     GAUSS_N, "serve-gauss64")


# -- cluster-gauss64 -----------------------------------------------------------------


def make_cluster(x: np.ndarray, seed: int, traced: bool) -> Stack:
    obs = Observability() if traced else disabled()
    t0 = time.perf_counter()
    half = x.shape[0] // 2
    ranges = [(0, half), (half, x.shape[0])]
    engine_log, batch_log = CallLog(), CallLog()
    shards, builds, layers = [], [], []
    for sid, (lo, hi) in enumerate(ranges):
        graph, forest, build_s, lay = timed_build(
            x[lo:hi], build_config(GRAPH_K, seed), traced)
        builds.append(build_s)
        layers.extend(lay)
        index = GraphSearchIndex.from_parts(x[lo:hi], graph, forest,
                                            SearchConfig(ef=EF), obs=obs)
        shards.append(TimedEngine(index, engine_log, sid) if traced else index)
    config = ClusterConfig(n_shards=2, n_replicas=1, backend="thread",
                           serve=serve_config(cache=False))

    def open_client() -> ClusterClient:
        client = ClusterClient(shards, ranges, config, obs=obs)
        if traced:
            time_scatter(client.router, batch_log)
        return client.start()

    stack = Stack(open_client, build_s=builds, layers=layers,
                  batch_log=batch_log, engine_log=engine_log)
    stack.client = open_client()
    stack.setup_s = time.perf_counter() - t0
    return stack


def run_cluster(seed: int, seconds: int, trace: bool) -> Outcome:
    out = Outcome()
    x = inputs.gauss_mixture(GAUSS_N, GAUSS_DIM, seed)
    count, parts = read_parts(CLUSTER_RATE, LONG_SPAN * seconds)
    queries = inputs.perturbed(x, count, seed, "unique")
    make = lambda traced: make_cluster(x, seed, traced)  # noqa: E731
    if trace:
        return trace_reads(out, queries, x, CLUSTER_RATE, make)
    burst = inputs.perturbed(x, BURSTS * BURST_REQUESTS, seed, "bursts")
    # each set-up build covers one shard
    return run_reads(out, queries, x, CLUSTER_RATE, parts, make, burst,
                     GAUSS_N // 2, "cluster-gauss64")


# -- churn-gauss64 -------------------------------------------------------------------


@dataclass
class WriteOp:
    kind: str
    ms: float
    epoch: int
    compacted: bool
    ids: np.ndarray


def make_churn(x0: np.ndarray, seed: int, traced: bool) -> Stack:
    obs = Observability() if traced else disabled()
    t0 = time.perf_counter()
    graph, forest, build_s, layers = timed_build(
        x0, build_config(GRAPH_K, seed), traced)
    index = GraphSearchIndex.from_parts(
        x0, graph, forest, SearchConfig(ef=EF, quantization="sq8"), obs=obs)
    n0 = x0.shape[0]
    snapshot = IndexSnapshot(0, index, np.arange(n0, dtype=np.int64),
                             np.zeros(n0, dtype=bool))
    mutable = MutableIndex(snapshot, build_config(GRAPH_K, seed), MutableConfig(),
                           obs=obs)
    log = CallLog()
    engine = TimedMutable(mutable, log) if traced else mutable
    stack = Stack(lambda: KNNServer(engine, serve_config(cache=True),
                                    obs=obs).start(),
                  build_s=[build_s], layers=layers, batch_log=log,
                  engine_log=log, mutable=mutable)
    stack.client = stack.open_client()
    stack.setup_s = time.perf_counter() - t0
    return stack


def replay_writes(out: Outcome, mutable: MutableIndex, trace: list,
                  vectors: np.ndarray, spacing: float, ops: list[WriteOp]) -> None:
    """The writer thread: one insert/delete batch per ``spacing`` seconds
    (back to back while it is behind), each call timed."""
    t0 = time.monotonic()
    for i, (kind, ids) in enumerate(trace):
        wait = t0 + i * spacing - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        epoch, compactions = mutable.epoch, mutable.counters["compactions"]
        start = time.perf_counter()
        try:
            if kind == "insert":
                got = mutable.insert(vectors[ids])
                out.check(np.array_equal(got, ids),
                          "churn: insert assigned unexpected external ids")
            else:
                mutable.delete(ids)
        except Exception as exc:  # a failed write is counted, not fatal
            out.problems.append(f"churn: {kind} raised {exc!r}")
            ops.append(WriteOp(kind, float("nan"), -1, False, ids))
            continue
        ms = (time.perf_counter() - start) * 1000.0
        out.check(mutable.epoch == epoch + 1, "churn: a write did not flip once")
        ops.append(WriteOp(kind, ms, mutable.epoch,
                           mutable.counters["compactions"] > compactions, ids))


def check_no_stale(out: Outcome, phases: list[PhaseResult], ops: list[WriteOp],
                   n_ids: int) -> None:
    """No answer holds an id deleted at or before the answer's epoch, or
    inserted after it."""
    deleted_at = np.full(n_ids, np.iinfo(np.int64).max)
    inserted_at = np.zeros(n_ids, dtype=np.int64)
    for op in ops:
        if op.kind == "delete":
            deleted_at[op.ids] = op.epoch
        else:
            inserted_at[op.ids] = op.epoch
    stale = 0
    for phase in phases:
        for res, err in zip(phase.results, phase.errors):
            if err is not None:
                continue
            ids = np.asarray(res.ids, dtype=np.int64)
            ids = ids[(ids >= 0) & (ids < n_ids)]
            stale += int(((deleted_at[ids] <= res.epoch)
                          | (inserted_at[ids] > res.epoch)).any())
    out.check(stale == 0, f"churn: {stale} stale reads")


def churn_phases(out: Outcome, stack: Stack, queries: np.ndarray,
                 vectors: np.ndarray, trace: list, seconds: int, parts: int):
    """Reads at the fixed rate beside the writer's trace replay.

    With ``parts == 1`` the reads go to the stack's running client,
    otherwise to ``parts`` consecutive fresh clients.
    """
    ops: list[WriteOp] = []
    writer = threading.Thread(
        target=replay_writes, name="bench-writer",
        args=(out, stack.mutable, trace, vectors, seconds / len(trace), ops))
    writer.start()
    try:
        if parts == 1:
            phases = [run_open_loop(submit_fn(stack.client), queries, CHURN_RATE)]
        else:
            phases = run_phases(stack.open_client, queries, CHURN_RATE, parts)
    finally:
        writer.join()
    out.attempted += len(ops)
    out.failed += sum(1 for op in ops if op.epoch < 0)
    for phase, chunk in zip(phases, np.array_split(queries, parts)):
        count_phase(out, phase)
        check_answers(out, phase, chunk, vectors)
    check_no_stale(out, phases, ops, vectors.shape[0])
    return phases, ops


def run_churn(seed: int, seconds: int, trace: bool) -> Outcome:
    out = Outcome()
    ops_trace = inputs.churn_trace(GAUSS_N, CHURN_OPS, CHURN_BATCH, seed)
    n_inserted = sum(ids.size for kind, ids in ops_trace if kind == "insert")
    vectors = inputs.gauss_mixture(GAUSS_N + n_inserted, GAUSS_DIM, seed)
    x0 = vectors[:GAUSS_N]
    # reads and writes span twice the run length, so the compaction covers
    # about a fifth of the reads and the median read is clear of it
    span = LONG_SPAN * seconds
    count, parts = read_parts(CHURN_RATE, span)
    queries = inputs.skewed_reads(x0, count, seed, "reads")

    if trace:
        cpu: dict[bool, float] = {}
        for traced in (False, True):
            stack = make_churn(x0, seed, traced)
            settle()
            try:
                c0 = cpu_seconds()
                phases, ops = churn_phases(out, stack, queries, vectors, ops_trace,
                                           span, 1)
                cpu[traced] = cpu_seconds() - c0
                if traced:
                    put_read_layers(out, phases[0], queries, stack)
                    put_mutable_layers(out, ops, stack.mutable)
            finally:
                stack.client.close()
        put_build_layers(out, stack.layers)
        out.put("trace.overhead_ratio", cpu[True] / cpu[False], "ratio")
        return out

    probe = inputs.perturbed(x0, PHASE_REQUESTS, seed, "recall")
    burst = inputs.skewed_reads(x0, BURSTS * BURST_REQUESTS, seed, "bursts")
    rss = PeakRss()
    rss.reset()
    stack, setups, builds = repeat_setup(lambda: make_churn(x0, seed, False))
    mutable = stack.mutable
    settle()
    phases, ops = churn_phases(out, stack, queries, vectors, ops_trace, span,
                               parts)
    # the final epoch: recall probe, then capacity over the churned index
    final = run_phases(stack.open_client, probe, CHURN_RATE, 1)[0]
    cap = capacity(out, stack.open_client, burst, vectors)
    peak = rss.peak_mb()

    count_phase(out, final)
    check_answers(out, final, probe, vectors)
    live = np.sort(mutable.live_ids())
    expect = np.ones(vectors.shape[0], dtype=bool)
    for op in ops:
        if op.kind == "delete":
            expect[op.ids] = False
    out.check(np.array_equal(live, np.flatnonzero(expect)),
              "churn: live set differs from the replayed trace")
    out.check(all(r is None or r.epoch == mutable.epoch for r in final.results),
              "churn: final reads not served at the final epoch")
    out.check(mutable.counters["compactions"] >= 1, "churn: trace never compacted")
    truth = live[inputs.exact_knn(vectors[live], probe, READ_K)]
    recall = inputs.recall_at_k(answer_ids(final, READ_K), truth)
    out.check(recall >= RECALL_FLOOR["churn-gauss64"], f"churn: recall {recall:.4f}")
    put_served_e2e(out, setups, builds, GAUSS_N, recall, phases, cap,
                   [op.ms for op in ops], peak, pooled=True)
    return out


def put_mutable_layers(out: Outcome, ops: list[WriteOp], mutable: MutableIndex) -> None:
    inserts = [op.ms for op in ops if op.kind == "insert" and not op.compacted]
    deletes = [op.ms for op in ops if op.kind == "delete" and not op.compacted]
    compacts = [op.ms / 1000.0 for op in ops if op.compacted]
    out.put("mutable.insert_ms_p50", pct(inserts, 50), "ms")
    out.put("mutable.insert_ms_p95", pct(inserts, 95), "ms")
    out.put("mutable.delete_ms_p50", pct(deletes, 50), "ms")
    out.put("mutable.compact_s", pct(compacts, 50) if compacts else 0.0, "s")
    out.put("mutable.compactions", mutable.counters["compactions"], "count")
    out.put("mutable.flips", mutable.counters["flips"], "count")
