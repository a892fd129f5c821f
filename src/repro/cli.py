"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``build``
    Build a K-NN graph from an ``.fvecs``/``.npy`` file (or a named
    synthetic dataset) and save it as ``.npz``.
``eval``
    Compare a saved graph against exact ground truth (recall, distance
    ratio).
``bench``
    Run one quick named-workload comparison (w-KNNG vs IVF at a recall
    target) and print the table.
``search``
    Build (or load) a graph-guided search index and answer a query
    batch, reporting recall and throughput.
``serve``
    Run the micro-batching query server under a closed-loop client
    swarm and report throughput + latency percentiles.
``loadgen``
    Drive open-loop load (target arrival rate, per-request deadlines)
    against the server: the overload/SLO instrument.
``neighbors``
    Emit a GNN-style COO edge list (``knn_graph``/``radius_graph``)
    through a serving frontend - single server or sharded cluster - and
    optionally run KNN-DBSCAN over the built graph.
``info``
    Show the library version, available strategies, datasets, workloads.

Examples
--------
::

    python -m repro build --dataset gaussian --n 10000 --k 16 -o graph.npz
    python -m repro build --input base.fvecs --k 10 --strategy atomic -o g.npz
    python -m repro eval --input base.fvecs --graph g.npz
    python -m repro bench --workload clustered-128d --target 0.99 --scale 0.1
    python -m repro search --dataset gaussian --n 20000 --ef 64
    python -m repro search --dataset gaussian --metric cosine --save-index idx/
    python -m repro serve --dataset gaussian --n 20000 --clients 16 --cache-size 512
    python -m repro loadgen --load-index idx/ --rate 3000 --deadline-ms 50
    python -m repro neighbors --dataset gaussian --n 20000 --topk 8 -o edges.npz
    python -m repro neighbors --dataset clustered --radius 2.5 --dbscan-eps 2.5
    python -m repro info
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np


def _load_points(args) -> np.ndarray:
    from repro.data.loaders import read_fvecs
    from repro.data.synthetic import make_dataset

    if args.input:
        path = Path(args.input)
        if path.suffix == ".fvecs":
            return read_fvecs(path)
        if path.suffix == ".npy":
            return np.load(path).astype(np.float32)
        raise SystemExit(f"unsupported input format: {path.suffix} (.fvecs/.npy)")
    if args.dataset:
        return make_dataset(args.dataset, args.n, seed=args.seed, dim=args.dim) \
            if args.dim else make_dataset(args.dataset, args.n, seed=args.seed)
    raise SystemExit("provide --input FILE or --dataset NAME")


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help=".fvecs or .npy points file")
    p.add_argument("--dataset", help="synthetic dataset name (see `info`)")
    p.add_argument("--n", type=int, default=10_000, help="synthetic point count")
    p.add_argument("--dim", type=int, default=None, help="synthetic dimensionality")
    p.add_argument("--seed", type=int, default=0)


def cmd_build(args) -> int:
    import os

    from repro import BuildConfig, WKNNGBuilder
    from repro.obs import Observability

    if args.sanitize is not None:
        if args.backend != "simt":
            raise SystemExit(
                "--sanitize requires --backend simt (the wksan race detector "
                "instruments the simulated device)"
            )
        # the env switch is how the sanitizer reaches the DeviceConfig the
        # pipeline constructs internally (and any worker processes)
        os.environ["WKNN_SANITIZE"] = args.sanitize
    x = _load_points(args)
    cfg = BuildConfig(
        k=args.k,
        strategy=args.strategy,
        backend=args.backend,
        n_trees=args.trees,
        leaf_size=args.leaf_size,
        refine_iters=args.refine,
        seed=args.seed,
        n_jobs=args.jobs,
    )
    obs = Observability(trace_memory=args.trace_memory)
    builder = WKNNGBuilder(cfg, obs=obs)
    t0 = time.perf_counter()
    graph, rep = builder.build(x, return_report=True)
    dt = time.perf_counter() - t0
    graph.save(args.output)
    print(f"built {graph} from {x.shape} in {dt:.2f}s -> {args.output}")
    for phase, secs in rep.phase_seconds.items():
        print(f"  {phase:<12s} {secs:8.3f}s")
    if "distance_evals" in rep.counters:
        print(f"  distance evals/point: "
              f"{rep.counters['distance_evals'] / graph.n:.0f}")
    san = graph.meta.get("sanitizer")
    if san is not None:
        if san["findings"] == 0:
            print("  wksan: clean (no findings)")
        else:
            kinds = ", ".join(f"{k}={v}" for k, v in sorted(san["by_kind"].items()))
            print(f"  wksan: {san['findings']} findings ({kinds})")
            for msg in san["messages"][:5]:
                print(f"    {msg}")
    if rep.parallel.get("n_jobs", 1) > 1:
        leaf = rep.parallel.get("leaf", {})
        print(f"  parallel: {rep.parallel['workers']} workers, "
              f"leaf merge {leaf.get('merge_seconds', 0.0):.3f}s")
    if args.trace_out:
        from repro.obs.export import write_trace

        path = write_trace(
            args.trace_out, obs,
            meta={"command": "build", "output": str(args.output),
                  "n": graph.n, "k": graph.k, "strategy": cfg.strategy},
        )
        print(f"  trace: {len(obs.trace.records)} spans -> {path}")
    return 0


def cmd_eval(args) -> int:
    from repro.baselines import exact_knn_graph
    from repro.core.graph import KNNGraph
    from repro.metrics.quality import distance_ratio

    x = _load_points(args)
    graph = KNNGraph.load(args.graph)
    if graph.n != x.shape[0]:
        raise SystemExit(
            f"graph has {graph.n} nodes but points file has {x.shape[0]} rows"
        )
    exact = exact_knn_graph(x, graph.k)
    print(f"recall@{graph.k}:       {graph.recall(exact):.4f}")
    print(f"distance ratio:  {distance_ratio(graph, exact):.4f}")
    print(f"complete:        {graph.is_complete()}")
    return 0


def cmd_bench(args) -> int:
    from repro.baselines.bruteforce import BruteForceKNN
    from repro.baselines.ivf import IVFConfig
    from repro.bench.match import match_ivf_recall, match_wknng_recall
    from repro.bench.workloads import get_workload
    from repro.core.config import BuildConfig

    w = get_workload(args.workload)
    x = w.materialize(args.scale)
    print(f"workload {args.workload}: n={x.shape[0]}, d={x.shape[1]}, "
          f"k={w.k}, target recall {args.target}")
    gt, _ = BruteForceKNN(x).search(x, w.k, exclude_self=True)
    base = BuildConfig(k=w.k, strategy=args.strategy, n_trees=1, leaf_size=64,
                       refine_iters=8, refine_fanout=2, seed=0)
    wk = match_wknng_recall(x, gt, base, args.target).achieved
    ivf = match_ivf_recall(x, gt, w.k, args.target, IVFConfig(seed=7)).achieved
    print(f"w-knng/{args.strategy}: recall={wk.recall:.4f} "
          f"modeled={wk.modeled_cycles / 1e6:.1f} Mcycles "
          f"(trees={wk.params['n_trees']}, refine={wk.params['refine_iters']})")
    print(f"ivf-flat:      recall={ivf.recall:.4f} "
          f"modeled={ivf.modeled_cycles / 1e6:.1f} Mcycles "
          f"(nprobe={ivf.params['nprobe']})")
    print(f"modeled speedup (ivf/wknng): "
          f"{ivf.modeled_cycles / max(1, wk.modeled_cycles):.2f}x")
    return 0


def cmd_search(args) -> int:
    from repro.apps.search import GraphSearchIndex, SearchConfig
    from repro.baselines.bruteforce import BruteForceKNN
    from repro.core.config import BuildConfig

    search_cfg = SearchConfig(
        ef=args.ef, frontier=args.frontier, n_jobs=args.jobs,
        seeds_per_tree=args.seeds_per_tree,
        quantization=args.quantization, rerank=args.rerank,
    )
    if args.load_index:
        index = GraphSearchIndex.load(args.load_index, search_cfg)
        x = index._engine._x  # prepared space; fine for self-queries below
        print(f"loaded index from {args.load_index}: "
              f"n={index.graph.n}, k={index.graph.k}, metric={index.metric}")
    else:
        x = _load_points(args)
        t0 = time.perf_counter()
        index = GraphSearchIndex.build(
            x,
            build_config=BuildConfig(
                k=args.k, strategy=args.strategy, n_trees=args.trees,
                leaf_size=args.leaf_size, seed=args.seed, metric=args.metric,
            ),
            search_config=search_cfg,
        )
        print(f"built index over {x.shape} ({args.metric}) "
              f"in {time.perf_counter() - t0:.2f}s")
    if args.save_index:
        index.save(args.save_index)
        print(f"saved index -> {args.save_index}")

    rng = np.random.default_rng(args.seed + 1)
    q = x[rng.choice(x.shape[0], size=min(args.queries, x.shape[0]),
                     replace=False)]
    gt_ids, _ = BruteForceKNN(x, metric=index.metric).search(q, args.topk)
    t0 = time.perf_counter()
    ids, _ = index.search(q, args.topk)
    dt = time.perf_counter() - t0
    hits = sum(
        np.intersect1d(ids[i][ids[i] >= 0], gt_ids[i]).size
        for i in range(q.shape[0])
    )
    recall = hits / (q.shape[0] * args.topk)
    print(f"batched  recall@{args.topk}={recall:.4f}  "
          f"{q.shape[0] / dt:9.0f} queries/s  ({dt:.3f}s)")
    return 0


def _serving_index(args):
    """Build or load the GraphSearchIndex the serve/loadgen commands use."""
    from repro.apps.search import GraphSearchIndex, SearchConfig
    from repro.core.config import BuildConfig

    search_cfg = SearchConfig(ef=args.ef, quantization=args.quantization,
                              rerank=args.rerank)
    if args.load_index:
        index = GraphSearchIndex.load(args.load_index, search_cfg)
        print(f"loaded index from {args.load_index}: "
              f"n={index.n}, k={index.graph.k}, metric={index.metric}")
    else:
        x = _load_points(args)
        t0 = time.perf_counter()
        index = GraphSearchIndex.build(
            x,
            build_config=BuildConfig(k=args.k, strategy="tiled",
                                     seed=args.seed, metric=args.metric),
            search_config=search_cfg,
        )
        print(f"built index over {x.shape} ({args.metric}) "
              f"in {time.perf_counter() - t0:.2f}s")
    return index


def _serve_config(args):
    from repro.serve import (
        AdmissionPolicy,
        CachePolicy,
        DeadlinePolicy,
        QuantizationPolicy,
        ServeConfig,
        ShedPolicy,
    )

    return ServeConfig(
        admission=AdmissionPolicy(
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            queue_limit=args.queue_limit,
            n_workers=args.workers,
        ),
        deadline=DeadlinePolicy(default_ms=args.deadline_ms),
        cache=CachePolicy(size=args.cache_size),
        quant=QuantizationPolicy(mode=args.quantization, rerank=args.rerank),
        shed=ShedPolicy(enabled=not args.no_shed),
        default_k=args.topk,
        ef=args.ef,
    )


def _make_client(args, obs):
    """Build the SearchClient the serve/loadgen commands drive.

    ``--shards``/``--replicas`` select the sharded cluster; otherwise a
    single-process :class:`~repro.serve.KNNServer`.  Returns ``(client,
    query_pool)`` - the pool the request stream is sampled from.
    """
    cfg = _serve_config(args)
    if args.shards > 1 or args.replicas > 1:
        if args.load_index:
            raise SystemExit(
                "--load-index cannot be combined with --shards/--replicas: "
                "sharding re-partitions the raw points at build time"
            )
        from repro.apps.search import SearchConfig
        from repro.core.config import BuildConfig
        from repro.serve import ClusterClient, ClusterConfig

        x = _load_points(args)
        ccfg = ClusterConfig(
            n_shards=args.shards,
            n_replicas=args.replicas,
            backend=args.cluster_backend,
            shard_ef_policy=args.shard_ef_policy,
            serve=cfg,
        )
        t0 = time.perf_counter()
        client = ClusterClient.build(
            x,
            build_config=BuildConfig(k=args.k, strategy="tiled",
                                     seed=args.seed, metric=args.metric),
            search_config=SearchConfig(ef=args.ef, **cfg.quant.to_search_fields()),
            seed=args.seed,
            config=ccfg,
            obs=obs,
        )
        print(f"built {args.shards}x{args.replicas} "
              f"{client.backend}-backend cluster over {x.shape} "
              f"({args.metric}) in {time.perf_counter() - t0:.2f}s")
        return client, x
    from repro.serve import KNNServer

    index = _serving_index(args)
    return KNNServer(index, cfg, obs=obs), index._engine._x


def _print_serve_report(client, report) -> None:
    lat = report.latency_summary()
    print(f"  requests={report.requests}  ok={report.ok}  "
          f"rejected={report.rejected}  timeouts={report.timeouts}  "
          f"cached={report.cached}  shed={report.shed_served}")
    print(f"  throughput {report.throughput_qps:9.0f} q/s  "
          f"(offered {report.offered_qps:.0f} q/s)")
    print(f"  latency ms  p50={lat['p50']:.2f}  p95={lat['p95']:.2f}  "
          f"p99={lat['p99']:.2f}  mean={lat['mean']:.2f}")
    stats = client.stats()
    print(f"  server: batches={stats['batches']}  "
          f"shed_level={stats['shed_level']}  "
          f"deadline_violations={report.deadline_violations}")
    router = stats.get("router")
    if router is not None:
        print(f"  cluster: shards={stats['n_shards']}  "
              f"replicas={stats['n_replicas']}  "
              f"healthy={router['healthy_replicas']}  "
              f"failovers={router['failovers']}  "
              f"ejections={router['ejections']}")


def _maybe_write_serve_trace(args, obs, command: str) -> None:
    if getattr(args, "trace_out", None):
        from repro.obs.export import write_trace

        path = write_trace(args.trace_out, obs, meta={"command": command})
        print(f"  trace -> {path}")


def _add_quant_args(p) -> None:
    p.add_argument("--quantization", default="none",
                   help="compressed vector tier: none, sq8 or pq<M> "
                        "(e.g. pq16); candidates score via ADC lookup "
                        "tables, the top beam reranks in full precision")
    p.add_argument("--rerank", type=int, default=0,
                   help="beam entries reranked in full precision "
                        "(0 = whole beam; quantized modes only)")


def _add_serve_args(p, include_rate: bool) -> None:
    _add_data_args(p)
    _add_quant_args(p)
    p.add_argument("-k", "--k", type=int, default=16, help="graph degree")
    p.add_argument("--metric", default="sqeuclidean",
                   choices=("sqeuclidean", "cosine"))
    p.add_argument("--load-index", dest="load_index", default=None,
                   help="serve a previously saved index directory")
    p.add_argument("--topk", type=int, default=10, help="neighbours per query")
    p.add_argument("--ef", type=int, default=64, help="full-quality beam width")
    p.add_argument("--max-batch", type=int, default=64, dest="max_batch")
    p.add_argument("--max-wait-ms", type=float, default=2.0, dest="max_wait_ms")
    p.add_argument("--queue-limit", type=int, default=256, dest="queue_limit")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--cache-size", type=int, default=0, dest="cache_size",
                   help="LRU result-cache entries (0 disables)")
    p.add_argument("--deadline-ms", type=float, default=None,
                   dest="deadline_ms", help="per-request deadline")
    p.add_argument("--no-shed", action="store_true", dest="no_shed",
                   help="disable ef-shedding degradation under load")
    p.add_argument("--shards", type=int, default=1,
                   help="index shards; >1 serves through the sharded "
                        "cluster (repro.serve.cluster)")
    p.add_argument("--replicas", type=int, default=1,
                   help="replica workers per shard (cluster serving)")
    p.add_argument("--cluster-backend", dest="cluster_backend",
                   default="auto", choices=("auto", "process", "thread"),
                   help="replica isolation: forked processes or in-process "
                        "threads ('auto' forks where available)")
    p.add_argument("--shard-ef-policy", dest="shard_ef_policy",
                   default="scaled", choices=("full", "scaled"),
                   help="per-shard beam width: 'full' sends the request ef "
                        "to every shard (flat-index parity), 'scaled' sends "
                        "~ef/S (throughput scales with shards)")
    p.add_argument("--queries", type=int, default=2000,
                   help="dataset rows sampled as the request stream")
    if include_rate:
        p.add_argument("--rate", type=float, default=2000.0,
                       help="offered arrival rate (requests/s)")
        p.add_argument("--duration", type=float, default=5.0,
                       help="seconds of open-loop load")
    else:
        p.add_argument("--clients", type=int, default=8,
                       help="closed-loop client threads")
        p.add_argument("--repeat", type=int, default=1,
                       help="passes over the sampled query stream")
        p.add_argument("--churn", type=float, default=None,
                       help="serve a MUTABLE index and apply this many "
                            "insert/delete batches per second while the "
                            "closed loop runs (epoch-versioned snapshots; "
                            "see docs/mutable.md)")
        p.add_argument("--churn-batch", type=int, default=32,
                       dest="churn_batch",
                       help="points per mutation batch (churn mode)")
        p.add_argument("--delete-fraction", type=float, default=0.5,
                       dest="delete_fraction",
                       help="fraction of mutation batches that delete "
                            "instead of insert (churn mode)")
    p.add_argument("--trace-out", dest="trace_out", default=None,
                   help="write the serving JSON-lines trace here")


def cmd_serve(args) -> int:
    """Closed-loop serving session over a server or sharded cluster."""
    from repro.obs import Observability
    from repro.serve import closed_loop

    if getattr(args, "churn", None) is not None:
        return _cmd_serve_churn(args)
    obs = Observability()
    client, x = _make_client(args, obs)
    rng = np.random.default_rng(args.seed + 1)
    q = x[rng.choice(x.shape[0], size=min(args.queries, x.shape[0]),
                     replace=False)]
    print(f"serving closed-loop: {q.shape[0]} queries x{args.repeat} over "
          f"{args.clients} clients (max_batch={args.max_batch}, "
          f"max_wait={args.max_wait_ms}ms, ef={args.ef})")
    with client:
        report = closed_loop(client, q, args.topk, clients=args.clients,
                             repeat=args.repeat, deadline_ms=args.deadline_ms,
                             collect_ids=False)
        _print_serve_report(client, report)
    _maybe_write_serve_trace(args, obs, "serve")
    return 0


def _cmd_serve_churn(args) -> int:
    """``serve --churn``: query a mutable index while mutating it.

    Half the dataset seeds the initial index; the other half is the
    insert pool the churn loop cycles through.  The closed-loop query
    stream samples from the *initial* half so it stays meaningful while
    points come and go.
    """
    import threading

    from repro.apps.search import SearchConfig
    from repro.core import BuildConfig, MutableIndex
    from repro.obs import Observability
    from repro.serve import KNNServer, churn_loop, closed_loop

    if args.shards > 1 or args.replicas > 1 or args.load_index:
        raise SystemExit(
            "--churn serves a freshly built mutable index; it cannot be "
            "combined with --shards/--replicas/--load-index"
        )
    obs = Observability()
    cfg = _serve_config(args)
    x = _load_points(args)
    half = x.shape[0] // 2
    base, pool = x[:half], x[half:]
    t0 = time.perf_counter()
    # quantization composes with churn: inserts encode against the frozen
    # codebooks, compaction retrains (see docs/quantization.md)
    mut = MutableIndex.build(
        base,
        BuildConfig(k=args.k, strategy="tiled", seed=args.seed,
                    metric=args.metric),
        SearchConfig(ef=args.ef, **cfg.quant.to_search_fields()),
        obs=obs,
    )
    print(f"built mutable index over {base.shape} ({args.metric}) "
          f"in {time.perf_counter() - t0:.2f}s; insert pool {pool.shape}")
    rng = np.random.default_rng(args.seed + 1)
    q = base[rng.choice(base.shape[0], size=min(args.queries, base.shape[0]),
                        replace=False)]
    print(f"serving closed-loop under churn: {q.shape[0]} queries "
          f"x{args.repeat} over {args.clients} clients, "
          f"{args.churn:.0f} mutation batches/s "
          f"(batch={args.churn_batch}, delete_fraction="
          f"{args.delete_fraction})")
    stop = threading.Event()
    churn_out: dict = {}

    def churner() -> None:
        churn_out["report"] = churn_loop(
            mut, pool, ops_per_sec=args.churn, duration_s=3600.0,
            batch_size=args.churn_batch,
            delete_fraction=args.delete_fraction,
            seed=args.seed + 2, stop=stop,
        )

    with KNNServer(mut, cfg, obs=obs) as server:
        thread = threading.Thread(target=churner, daemon=True)
        thread.start()
        try:
            report = closed_loop(
                server, q, args.topk, clients=args.clients,
                repeat=args.repeat, deadline_ms=args.deadline_ms,
                collect_ids=False,
            )
        finally:
            stop.set()
            thread.join()
        _print_serve_report(server, report)
        churn = churn_out["report"]
        print(f"  churn: ops={churn.ops} ({churn.ops_per_sec:.0f}/s)  "
              f"inserted={churn.inserted}  deleted={churn.deleted}  "
              f"errors={churn.errors}")
        stats = mut.stats()
        print(f"  index: epoch {churn.start_epoch} -> {churn.end_epoch} "
              f"({churn.flips} flips)  "
              f"n_live={stats['n_live']}  "
              f"compactions={stats['compactions']}")
        if stats["quantization"] != "none":
            drift = stats["quant_drift"]
            print(f"  quant: {stats['quantization']}  drift="
                  f"{'n/a' if drift is None else format(drift, '.2f')}")
    _maybe_write_serve_trace(args, obs, "serve")
    return 0


def cmd_loadgen(args) -> int:
    """Open-loop load generation: arrivals at a target rate with deadlines."""
    from repro.obs import Observability
    from repro.serve import open_loop

    obs = Observability()
    client, x = _make_client(args, obs)
    rng = np.random.default_rng(args.seed + 1)
    q = x[rng.choice(x.shape[0], size=min(args.queries, x.shape[0]),
                     replace=False)]
    print(f"loadgen open-loop: {args.rate:.0f} req/s for {args.duration:.1f}s "
          f"(deadline={args.deadline_ms}ms, queue_limit={args.queue_limit})")
    with client:
        report = open_loop(client, q, args.topk, rate_qps=args.rate,
                           duration_s=args.duration,
                           deadline_ms=args.deadline_ms, seed=args.seed)
        _print_serve_report(client, report)
    _maybe_write_serve_trace(args, obs, "loadgen")
    return 0


def cmd_neighbors(args) -> int:
    """COO edge lists (and optional DBSCAN labels) via a serving frontend."""
    from repro.neighbors import DBSCANConfig, KNNDBSCAN, knn_graph, radius_graph
    from repro.obs import Observability

    obs = Observability()
    client, x = _make_client(args, obs)
    query_mask = None
    if args.query_limit is not None:
        query_mask = np.arange(min(args.query_limit, x.shape[0]))
    t0 = time.perf_counter()
    with client:
        kwargs = dict(query_mask=query_mask, metric=args.metric,
                      backend=client, ef=args.ef, obs=obs, return_dists=True)
        if args.radius is not None:
            edges, dists = radius_graph(
                x, args.radius, max_num_neighbors=args.topk,
                loop=args.loop, **kwargs)
        else:
            edges, dists = knn_graph(x, args.topk, loop=args.loop, **kwargs)
        dt = time.perf_counter() - t0
        scoped = obs.metrics.scoped("neighbors/")
        truncated = scoped.counter("radius_truncated").get()
        mode = (f"radius_graph(r={args.radius}, "
                f"max_num_neighbors={args.topk})"
                if args.radius is not None else f"knn_graph(k={args.topk})")
        print(f"{mode}: {edges.shape[1]} edges over "
              f"{np.unique(edges[1]).size} queries in {dt:.2f}s "
              f"({edges.shape[1] / max(dt, 1e-9):.0f} edges/s, "
              f"loop={args.loop}, truncated_rows={truncated})")

        labels = None
        if args.dbscan_eps is not None:
            cfg = DBSCANConfig(eps=args.dbscan_eps,
                               min_pts=args.dbscan_min_pts,
                               metric=args.metric)
            model = KNNDBSCAN(cfg, obs=obs)
            # reuse the served graph when the frontend exposes one with
            # enough degree; otherwise build one for the clustering pass
            graph = getattr(getattr(client, "index", None), "graph", None)
            t0 = time.perf_counter()
            if graph is not None and graph.k >= cfg.min_pts - 1:
                labels = model.fit_predict(graph)
            else:
                labels = model.fit_predict(x)
            print(f"knn-dbscan(eps={args.dbscan_eps}, "
                  f"min_pts={args.dbscan_min_pts}): "
                  f"{model.n_clusters_} clusters, "
                  f"{int((labels == -1).sum())} noise, "
                  f"{int(model.core_mask_.sum())} core points "
                  f"in {time.perf_counter() - t0:.2f}s")
    if args.output:
        payload = {"edge_index": edges, "dists": dists}
        if labels is not None:
            payload["labels"] = labels
        np.savez_compressed(args.output, **payload)
        print(f"wrote {', '.join(payload)} -> {args.output}")
    _maybe_write_serve_trace(args, obs, "neighbors")
    return 0


def cmd_verify(args) -> int:
    from repro.verify import run_verification

    return 0 if run_verification(n=args.n, seed=args.seed) else 1


def cmd_info(args) -> int:
    from repro import __version__, available_strategies
    from repro.bench.workloads import WORKLOADS
    from repro.data.synthetic import DATASETS

    print(f"repro (w-KNNG reproduction) version {__version__}")
    print(f"strategies: {', '.join(available_strategies())}")
    print(f"datasets:   {', '.join(sorted(DATASETS))}")
    print(f"workloads:  {', '.join(sorted(WORKLOADS))}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="w-KNNG: warp-centric K-NN graph construction"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a K-NN graph and save it")
    _add_data_args(p)
    p.add_argument("-k", "--k", type=int, default=16)
    p.add_argument("--strategy", default="tiled",
                   choices=("baseline", "atomic", "tiled"))
    p.add_argument("--backend", default="vectorized",
                   choices=("vectorized", "simt"),
                   help="vectorized NumPy kernels (fast) or the event-level "
                        "SIMT simulator (faithful, slow)")
    p.add_argument("--sanitize", nargs="?", const="raise", default=None,
                   choices=("raise", "report"),
                   help="run the simt build under the wksan race detector "
                        "(simt backend only; 'report' logs findings instead "
                        "of raising)")
    p.add_argument("--trees", type=int, default=4)
    p.add_argument("--leaf-size", type=int, default=64, dest="leaf_size")
    p.add_argument("--refine", type=int, default=2)
    p.add_argument("--jobs", type=int, default=1,
                   help="fork-shard the leaf and refine phases across workers "
                        "(bitwise identical to the serial build)")
    p.add_argument("-o", "--output", required=True, help="output .npz path")
    p.add_argument("--trace-out", dest="trace_out", default=None,
                   help="write the build's JSON-lines trace here")
    p.add_argument("--trace-memory", dest="trace_memory", action="store_true",
                   help="capture per-span tracemalloc peaks (slow)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("eval", help="evaluate a saved graph against exact KNN")
    _add_data_args(p)
    p.add_argument("--graph", required=True, help="graph .npz from `build`")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="quick matched-recall comparison vs IVF")
    p.add_argument("--workload", default="clustered-128d")
    p.add_argument("--target", type=float, default=0.99)
    p.add_argument("--scale", type=float, default=0.1,
                   help="workload size multiplier")
    p.add_argument("--strategy", default="tiled",
                   choices=("baseline", "atomic", "tiled"))
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "search", help="build (or load) a search index and answer queries"
    )
    _add_data_args(p)
    p.add_argument("-k", "--k", type=int, default=16, help="graph degree")
    p.add_argument("--strategy", default="tiled",
                   choices=("baseline", "atomic", "tiled"))
    p.add_argument("--trees", type=int, default=4)
    p.add_argument("--leaf-size", type=int, default=64, dest="leaf_size")
    p.add_argument("--metric", default="sqeuclidean",
                   choices=("sqeuclidean", "cosine"))
    p.add_argument("--queries", type=int, default=1000,
                   help="dataset rows sampled as the query batch")
    p.add_argument("--topk", type=int, default=10, help="neighbours per query")
    p.add_argument("--ef", type=int, default=64, help="beam width")
    p.add_argument("--frontier", type=int, default=1,
                   help="beam entries expanded per round")
    p.add_argument("--jobs", type=int, default=1,
                   help="fork-shard the query batch across workers")
    p.add_argument("--seeds-per-tree", type=int, default=4,
                   dest="seeds_per_tree")
    _add_quant_args(p)
    p.add_argument("--save-index", dest="save_index", default=None,
                   help="persist points+graph+forest to this directory")
    p.add_argument("--load-index", dest="load_index", default=None,
                   help="load a previously saved index instead of building")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser(
        "serve",
        help="run a micro-batching query server under closed-loop clients",
    )
    _add_serve_args(p, include_rate=False)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "loadgen",
        help="drive open-loop load (rate + deadlines) against the server",
    )
    _add_serve_args(p, include_rate=True)
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser(
        "neighbors",
        help="emit GNN-style COO edge lists (knn_graph/radius_graph) "
             "through a serving frontend, optionally with KNN-DBSCAN",
    )
    _add_data_args(p)
    _add_quant_args(p)
    p.add_argument("-k", "--k", type=int, default=16, help="graph degree")
    p.add_argument("--metric", default="sqeuclidean",
                   choices=("sqeuclidean", "cosine"))
    p.add_argument("--load-index", dest="load_index", default=None,
                   help="serve a previously saved index directory")
    p.add_argument("--topk", type=int, default=10,
                   help="neighbours per query (radius mode: "
                        "max_num_neighbors cap)")
    p.add_argument("--ef", type=int, default=64, help="beam width")
    p.add_argument("--loop", action="store_true",
                   help="keep self-loop edges (the self-edge counts "
                        "toward --topk)")
    p.add_argument("--radius", type=float, default=None,
                   help="squared-distance radius cutoff: emit "
                        "radius_graph edges instead of plain k-NN")
    p.add_argument("--query-limit", type=int, default=None,
                   dest="query_limit",
                   help="only the first N points emit edges (query mask)")
    p.add_argument("--shards", type=int, default=1,
                   help="index shards; >1 emits through the sharded "
                        "cluster")
    p.add_argument("--replicas", type=int, default=1,
                   help="replica workers per shard (cluster mode)")
    p.add_argument("--cluster-backend", dest="cluster_backend",
                   default="auto", choices=("auto", "process", "thread"))
    p.add_argument("--cache-size", type=int, default=0, dest="cache_size",
                   help="LRU result-cache entries (0 disables)")
    p.add_argument("--dbscan-eps", type=float, default=None,
                   dest="dbscan_eps",
                   help="also run KNN-DBSCAN at this squared-distance eps")
    p.add_argument("--dbscan-min-pts", type=int, default=5,
                   dest="dbscan_min_pts",
                   help="DBSCAN core threshold (the point itself counts)")
    p.add_argument("-o", "--output", default=None,
                   help="write .npz (edge_index, dists[, labels]) here")
    p.add_argument("--trace-out", dest="trace_out", default=None,
                   help="write the JSON-lines trace here")
    p.set_defaults(func=cmd_neighbors, max_batch=64, max_wait_ms=2.0,
                   queue_limit=256, workers=1, deadline_ms=None,
                   no_shed=False, shard_ef_policy="scaled")

    p = sub.add_parser("info", help="show version and registries")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser(
        "verify", help="run the scaled-down reproduction claim checks"
    )
    p.add_argument("--n", type=int, default=3000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
